package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ubac/internal/telemetry"
)

var errUnexpected = errors.New("unexpected response frame")

// TestWireSteadyStateZeroAlloc runs the daemon's warm loop — a server
// over a controller whose decisions land in a real RegistrySink and
// audit Ring, two connections each pipelining 64-op admit frames and
// then the matching teardown frames — and counts the whole process's
// allocations once it is warm. The two connections' decision runs meet
// in the ring, which must turn its chunks over however their installs
// interleave. The two peers below allocate nothing of their own.
func TestWireSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctrl := newTestController(t)
	sink := telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096))
	ctrl.SetSink(sink)
	_, addr := startServer(t, ctrl, Options{Observer: sink})
	set, err := ctrl.ClassRoutes("voice")
	if err != nil {
		t.Fatal(err)
	}

	const frames, ops = 8, 64 // pipelined frames per round, ops per frame
	type peer struct {
		nc       net.Conn
		out, in  []byte
		ids      []uint64
		body     []byte
		seq      uint64
		firstErr error
	}
	peers := make([]*peer, 2)
	for i := range peers {
		rc := rawDial(t, addr)
		rc.nc.SetDeadline(time.Now().Add(time.Minute))
		peers[i] = &peer{nc: rc.nc, in: make([]byte, 0, 64<<10), ids: make([]uint64, 0, frames*ops)}
	}
	// exchange writes the staged frames and reads one response per frame,
	// handing each body to each.
	exchange := func(d *peer, each func(f Frame) bool) bool {
		if _, err := d.nc.Write(d.out); err != nil {
			d.firstErr = err
			return false
		}
		for got := 0; got < frames; {
			f, n, err := DecodeFrame(d.in)
			if err == nil {
				if f.Flags&FlagError != 0 || !each(f) {
					d.firstErr = errUnexpected
					return false
				}
				d.in = d.in[:copy(d.in, d.in[n:])]
				got++
				continue
			}
			m, err := d.nc.Read(d.in[len(d.in):cap(d.in)])
			if err != nil {
				d.firstErr = err
				return false
			}
			d.in = d.in[:len(d.in)+m]
		}
		return true
	}
	round := func(d *peer) bool {
		d.out = d.out[:0]
		for fi := 0; fi < frames; fi++ {
			d.body = d.body[:0]
			for u := 0; u < ops; u++ {
				rt := set.Route((fi*ops + u) % set.Len())
				d.body = binary.LittleEndian.AppendUint32(d.body, 0)
				d.body = binary.LittleEndian.AppendUint32(d.body, uint32(rt.Src))
				d.body = binary.LittleEndian.AppendUint32(d.body, uint32(rt.Dst))
			}
			d.seq++
			d.out = AppendFrame(d.out, FrameAdmit, 0, ops, d.seq, d.body)
		}
		d.ids = d.ids[:0]
		if !exchange(d, func(f Frame) bool {
			for off := 0; off < len(f.Body); off += admitRespUnitLen {
				if binary.LittleEndian.Uint32(f.Body[off+8:]) != StatusOK {
					return false
				}
				d.ids = append(d.ids, binary.LittleEndian.Uint64(f.Body[off:]))
			}
			return f.Type == FrameAdmit
		}) {
			return false
		}
		d.out = d.out[:0]
		for fi := 0; fi < frames; fi++ {
			d.body = d.body[:0]
			for _, id := range d.ids[fi*ops : (fi+1)*ops] {
				d.body = binary.LittleEndian.AppendUint64(d.body, id)
			}
			d.seq++
			d.out = AppendFrame(d.out, FrameTeardown, 0, ops, d.seq, d.body)
		}
		return exchange(d, func(f Frame) bool {
			for _, st := range f.Body {
				if uint32(st) != StatusOK {
					return false
				}
			}
			return f.Type == FrameTeardown
		})
	}
	run := func(rounds int) {
		var wg sync.WaitGroup
		for _, d := range peers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds && round(d); r++ {
				}
			}()
		}
		wg.Wait()
		for _, d := range peers {
			if d.firstErr != nil {
				t.Fatalf("peer: %v", d.firstErr)
			}
		}
	}

	run(200) // every ring chunk, registry slot and buffer in place
	const rounds = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(rounds)
	runtime.ReadMemStats(&after)
	total := rounds * len(peers) * frames * ops * 2 // admits and teardowns
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs over %d ops", mallocs, total)
	// Well under 1 per 1000 ops: the peers' goroutine starts and
	// the runtime's occasional ones, nothing that grows with the ops (a
	// ring that lost a chunk to every contested install showed over 100).
	if mallocs > 16 {
		t.Errorf("%d allocations over %d ops on a warm connection pair, want at most 16", mallocs, total)
	}
}

// echoCluster answers every cluster frame with a copy of its body.
type echoCluster struct{}

func (echoCluster) ClusterFrame(typ byte, count uint16, body, dst []byte) (uint16, []byte, uint32, string) {
	return count, append(dst, body...), StatusOK, ""
}

// discardConn is a connection whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestClusterFrameZeroAlloc: a read pass of cluster frames — a lease
// call's worth of body and a heartbeat — is answered from the
// connection's own buffers: the handler appends into one, the frame is
// encoded into the other, and both keep what they grew to.
func TestClusterFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := NewServer(newTestController(t), Options{Cluster: echoCluster{}})
	c := srv.newConn(discardConn{})
	pending := AppendFrame(nil, FrameLease, 0, 128, 1, make([]byte, 4+128*LeaseReqUnitLen))
	pending = AppendFrame(pending, FrameHeartbeat, 0, 0, 2, make([]byte, 4))
	helloed := true
	pass := func() {
		if n, ok := c.process(pending, &helloed); n != len(pending) || !ok || !c.flush() {
			t.Fatalf("pass consumed %d of %d bytes, ok %v", n, len(pending), ok)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("%g allocations per pass of two cluster frames, want 0", allocs)
	}
}
