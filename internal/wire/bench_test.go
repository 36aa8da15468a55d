package wire

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
)

// benchFrame builds one admit frame with n units.
func benchFrame(n int) []byte {
	body := make([]byte, 0, n*admitReqUnitLen)
	for i := 0; i < n; i++ {
		body = binary.LittleEndian.AppendUint32(body, 0)
		body = binary.LittleEndian.AppendUint32(body, uint32(i%8))
		body = binary.LittleEndian.AppendUint32(body, uint32(i%8+1))
	}
	return AppendFrame(nil, FrameAdmit, 0, uint16(n), 1, body)
}

// BenchmarkAppendFrame is the encode hot path: one 32-unit admit
// frame into a reused buffer, the shape a pipelined client emits.
func BenchmarkAppendFrame(b *testing.B) {
	body := benchFrame(32)[frameHeaderLen+payloadHeaderLen:]
	buf := make([]byte, 0, 1024)
	b.SetBytes(int64(frameHeaderLen + payloadHeaderLen + len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], FrameAdmit, 0, 32, uint64(i), body)
	}
}

// BenchmarkDecodeFrame is the decode hot path: CRC verify + header
// parse of the same 32-unit frame.
func BenchmarkDecodeFrame(b *testing.B) {
	frame := benchFrame(32)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFrameSingleton decodes the smallest real frame, the
// per-message floor of the protocol.
func BenchmarkDecodeFrameSingleton(b *testing.B) {
	frame := benchFrame(1)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireLoopback measures end-to-end admits/s over a real TCP
// loopback: client goroutines against a served controller, admit +
// teardown per op so capacity never fills. The batch rows pipeline 32
// workers over 4 connections; singleton/conns=1 is one worker on one
// connection sending one op per frame — a lone frame per read pass, the
// shape that prices the per-frame socket path. writes/op is the
// server's socket writes per operation. Informational — the committed
// baseline gates only the CPU-bound encode/decode benches, because
// socket throughput on shared CI runners is weather.
func BenchmarkWireLoopback(b *testing.B) {
	for _, bc := range []struct {
		name                  string
		batch, conns, workers int
	}{
		{"batch=1", 1, 4, 32},
		{"batch=32", 32, 4, 32},
		{"singleton/conns=1", 1, 1, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctrl := newTestController(b)
			_, addr, st := startCountedServer(b, ctrl, Options{})
			c, err := Dial(ClientOptions{Addr: addr, Conns: bc.conns, Pipeline: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			voice, _ := c.ClassIndex("voice")
			routes, err := c.Routes(voice)
			if err != nil || len(routes) == 0 {
				b.Fatalf("routes: %v", err)
			}
			var ops atomic.Int64
			writes := st.writes.Load()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < bc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					reqs := make([]AdmitReq, bc.batch)
					var res []AdmitResult
					var ids []uint64
					var sts []uint32
					var err error
					rt := routes[w%len(routes)]
					for i := range reqs {
						reqs[i] = AdmitReq{Class: voice, Src: rt.Src, Dst: rt.Dst}
					}
					for ops.Add(int64(bc.batch)) <= int64(b.N) {
						res, err = c.Admit(reqs, res[:0])
						if err != nil {
							b.Error(err)
							return
						}
						ids = ids[:0]
						for _, r := range res {
							if r.Status == StatusOK {
								ids = append(ids, r.ID)
							}
						}
						if len(ids) > 0 {
							if sts, err = c.Teardown(ids, sts[:0]); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(st.writes.Load()-writes)/float64(b.N), "writes/op")
		})
	}
}
