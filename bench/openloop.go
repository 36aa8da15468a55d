package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ubac/internal/wire"
	"ubac/internal/workload"
)

// The open loop speaks the wire protocol itself instead of going
// through wire.Client: an open loop must put each op on the connection
// at its due time whether or not earlier ops have been answered, and
// wire.Client's calls block for their round trip. One sender goroutine
// paces and writes singleton frames, one reader goroutine matches the
// answers by sequence number; nothing else stands between the schedule
// and the socket, so what is timed is the daemon and the loopback, not
// a worker pool.

const (
	callPending  = 0
	callAdmitted = 1
	callRejected = 2
	callFailed   = 3
)

// openCfg shapes the open loop.
type openCfg struct {
	rate        float64 // arrivals per second
	meanHolding float64 // seconds
}

// dialOpen connects and performs the protocol handshake: the magic
// preamble, then a hello frame carrying the protocol version.
func dialOpen(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	hello := wire.AppendFrame(append([]byte(nil), wire.Magic[:]...), wire.FrameHello, 0, 0, 0,
		binary.LittleEndian.AppendUint32(nil, wire.ProtoVersion))
	if _, err := nc.Write(hello); err != nil {
		nc.Close()
		return nil, err
	}
	buf := make([]byte, 0, 512)
	for {
		n, err := nc.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		f, _, derr := wire.DecodeFrame(buf)
		if derr == nil {
			if f.Type != wire.FrameHello || f.Flags&wire.FlagError != 0 {
				nc.Close()
				return nil, fmt.Errorf("open loop: handshake refused")
			}
			break
		}
		if !errors.Is(derr, wire.ErrShort) || err != nil {
			nc.Close()
			return nil, fmt.Errorf("open loop: handshake: %v %v", derr, err)
		}
	}
	nc.SetDeadline(time.Time{})
	return nc, nil
}

// openRun is the state the sender and the reader share.
type openRun struct {
	env    *loadEnv
	w      window
	calls  []openCall
	events []workload.Event

	verdict []atomic.Uint32 // per call
	flowID  []atomic.Uint64 // per call
	sentAt  []atomic.Int64  // per event, ns since origin; 0 = not sent

	outstanding atomic.Int64
}

// runOpen replays a seeded Poisson schedule against the daemon at
// addr. Each arrival and departure goes out as a singleton frame at
// its due time, and admit latency is timed from that due time, so a
// stall charges every op queued behind it. Flows whose departure falls
// after the window are returned as held.
func runOpen(env *loadEnv, addr string, w window, calls []openCall, events []workload.Event) (*loadResult, error) {
	conn, err := dialOpen(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	end := int64(w.warm + w.length)
	nEvents := 0
	for nEvents < len(events) && int64(events[nEvents].At*1e9) < end {
		nEvents++
	}
	run := &openRun{env: env, w: w, calls: calls, events: events[:nEvents],
		verdict: make([]atomic.Uint32, len(calls)),
		flowID:  make([]atomic.Uint64, len(calls)),
		sentAt:  make([]atomic.Int64, nEvents),
	}
	res := &loadResult{slices: newSliceStats(w.slices), lag: newHist(), verdicts: make([]uint32, len(calls))}

	readerDone := make(chan opCounts, 1)
	go func() { readerDone <- run.read(conn, res.slices) }()

	sendCounts := run.send(conn, res.lag, end)

	// Let the tail of answers arrive; what has not been answered a few
	// seconds after the last send never will be.
	deadline := time.Now().Add(5 * time.Second)
	for run.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	conn.Close()
	readCounts := <-readerDone
	res.counts.add(sendCounts)
	res.counts.add(readCounts)
	if lost := run.outstanding.Load(); lost > 0 {
		res.counts.Transport += uint64(lost)
	}
	for i := range calls {
		v := run.verdict[i].Load()
		res.verdicts[i] = v
		if v == callAdmitted && int64((calls[i].Arrive+calls[i].Holding)*1e9) >= end {
			res.held = append(res.held, heldFlow{id: run.flowID[i].Load(), route: calls[i].Route})
		}
	}
	return res, nil
}

// send walks the schedule, releasing each event at its due time. A
// departure whose admit has not been answered yet waits in `deferred`.
func (run *openRun) send(conn net.Conn, lag *hist, end int64) opCounts {
	env := run.env
	var counts opCounts
	pace := newPacer(env.origin)
	defer pace.release()
	sc := env.sh.newScratch()
	var buf, body []byte
	var deferred []int
	var route [1]int32
	// Past this the generator is not late, it is lost: what remains is
	// dropped and counted as failed so the run still ends.
	giveUp := end + int64(5*time.Second)

	// queue appends event ei's frame to buf; false means the event's
	// admit is still undecided.
	queue := func(ei int, now int64) bool {
		ev := run.events[ei]
		call := &run.calls[ev.Call]
		route[0] = call.Route
		due := int64(ev.At * 1e9)
		if ev.Start {
			counts.Attempted++
			lag.record(now - due)
			req := env.req(call.Route)
			body = binary.LittleEndian.AppendUint32(body[:0], req.Class)
			body = binary.LittleEndian.AppendUint32(body, req.Src)
			body = binary.LittleEndian.AppendUint32(body, req.Dst)
			env.sh.sendAdmits(sc, route[:], now)
			run.sentAt[ei].Store(now)
			buf = wire.AppendFrame(buf, wire.FrameAdmit, 0, 1, uint64(ei+1), body)
			run.outstanding.Add(1)
			return true
		}
		switch run.verdict[ev.Call].Load() {
		case callPending:
			return false
		case callAdmitted:
			counts.Attempted++
			body = binary.LittleEndian.AppendUint64(body[:0], run.flowID[ev.Call].Load())
			env.sh.sendTeardowns(sc, route[:], now)
			run.sentAt[ei].Store(now)
			buf = wire.AppendFrame(buf, wire.FrameTeardown, 0, 1, uint64(ei+1), body)
			run.outstanding.Add(1)
		}
		return true
	}

	ei := 0
	for ei < len(run.events) || len(deferred) > 0 {
		now := env.now()
		if now > giveUp {
			for ; ei < len(run.events); ei++ {
				if run.events[ei].Start {
					counts.Attempted++
					counts.Dropped++
					run.verdict[run.events[ei].Call].Store(callFailed)
				}
			}
			break
		}
		buf = buf[:0]
		kept := deferred[:0]
		for _, di := range deferred {
			if !queue(di, now) {
				kept = append(kept, di)
			}
		}
		deferred = kept
		for ei < len(run.events) && int64(run.events[ei].At*1e9) <= now {
			if !queue(ei, now) {
				deferred = append(deferred, ei)
			}
			ei++
		}
		if len(buf) > 0 {
			if _, err := conn.Write(buf); err != nil {
				break // the reader sees the same failure; unanswered ops are counted from `outstanding`
			}
		}
		next := now + int64(50*time.Microsecond) // deferred departures poll for their verdict
		if ei < len(run.events) {
			if due := int64(run.events[ei].At * 1e9); len(deferred) == 0 || due < next {
				next = due
			}
		}
		pace.until(next)
	}
	return counts
}

// read matches answers to events by sequence number (event index + 1)
// and books verdicts, latency and the shadow ledger.
func (run *openRun) read(conn net.Conn, stats []sliceStat) opCounts {
	env := run.env
	var counts opCounts
	sc := env.sh.newScratch()
	var route [1]int32
	var admitted [1]bool
	pending := make([]byte, 0, 64<<10)
	for {
		if len(pending) == cap(pending) {
			grown := make([]byte, len(pending), 2*cap(pending))
			copy(grown, pending)
			pending = grown
		}
		n, err := conn.Read(pending[len(pending):cap(pending)])
		pending = pending[:len(pending)+n]
		consumed := 0
		for {
			f, fn, derr := wire.DecodeFrame(pending[consumed:])
			if derr != nil {
				if !errors.Is(derr, wire.ErrShort) {
					return counts
				}
				break
			}
			consumed += fn
			ei := int(f.Seq) - 1
			if ei < 0 || ei >= len(run.events) {
				counts.BadVerdict++
				continue
			}
			run.outstanding.Add(-1)
			now := env.now()
			ev := run.events[ei]
			call := &run.calls[ev.Call]
			route[0] = call.Route
			sent := run.sentAt[ei].Load()
			due := int64(ev.At * 1e9)
			slice := run.w.sliceOf(now)
			inWindow := slice >= 0 && slice < len(stats)
			if inWindow {
				stats[slice].ops++
				stats[slice].frames++
			}
			switch {
			case f.Flags&wire.FlagError != 0:
				counts.Transport++
				if ev.Start {
					env.sh.abortAdmits(sc, route[:], now)
					run.verdict[ev.Call].Store(callFailed)
				} else {
					env.sh.teardownsDone(sc, route[:], now)
				}
			case f.Type == wire.FrameAdmit && ev.Start && len(f.Body) == 12:
				id := binary.LittleEndian.Uint64(f.Body)
				status := binary.LittleEndian.Uint32(f.Body[8:])
				admitted[0] = status == wire.StatusOK
				counts.Spurious += uint64(env.sh.admitVerdicts(sc, route[:], admitted[:], sent, now))
				switch status {
				case wire.StatusOK:
					counts.Admitted++
					run.flowID[ev.Call].Store(id)
					run.verdict[ev.Call].Store(callAdmitted)
					if inWindow {
						stats[slice].admitted++
					}
				case wire.StatusCapacity:
					counts.Rejected++
					run.verdict[ev.Call].Store(callRejected)
				default:
					counts.BadVerdict++
					run.verdict[ev.Call].Store(callFailed)
				}
				if inWindow {
					stats[slice].latency.record(now - due)
				}
				if env.tr != nil {
					env.tr.clientSpan(spanAdmit, sent, now, 1)
				}
			case f.Type == wire.FrameTeardown && !ev.Start && len(f.Body) == 1:
				env.sh.teardownsDone(sc, route[:], now)
				if f.Body[0] == wire.StatusOK {
					counts.Teardowns++
				} else {
					counts.BadVerdict++
				}
				if env.tr != nil {
					env.tr.clientSpan(spanTeardown, sent, now, 1)
				}
			default:
				counts.BadVerdict++
			}
		}
		if consumed > 0 {
			pending = pending[:copy(pending, pending[consumed:])]
		}
		if err != nil {
			return counts
		}
	}
}
