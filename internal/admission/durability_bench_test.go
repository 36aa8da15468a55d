package admission

import (
	"fmt"
	"testing"

	"ubac/internal/wal"
)

// BenchmarkAdmitDurable prices durability: the contention-ring
// admit/teardown loop with the journal off, on with async group commit,
// and on with sync (ack-after-fsync), at growing batch sizes. ns/op is
// per flow. The ISSUE 5 acceptance point is async at batch >= 64 within
// 2x of off — group commit must amortize the write+fsync across the
// batch, not serialize on it.
func BenchmarkAdmitDurable(b *testing.B) {
	for _, mode := range []string{"off", "async", "sync"} {
		for _, size := range []int{1, 64, 256} {
			b.Run(fmt.Sprintf("fsync=%s/batch=%d", mode, size), func(b *testing.B) {
				ctrl := contentionController(b)
				if mode != "off" {
					m := wal.ModeAsync
					if mode == "sync" {
						m = wal.ModeSync
					}
					l, err := wal.Open(wal.Options{Dir: b.TempDir(), Mode: m, SegmentBytes: 64 << 20, Fingerprint: ctrl.Fingerprint()})
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { l.Close() })
					ctrl.SetJournal(l)
				}
				if size == 1 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						id, err := ctrl.Admit("voice", i%contentionRing, (i+1)%contentionRing)
						if err != nil {
							b.Fatal(err)
						}
						if err := ctrl.Teardown(id); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					items := make([]BatchItem, size)
					for j := range items {
						items[j] = BatchItem{Class: "voice", Src: j % contentionRing, Dst: (j + 1) % contentionRing}
					}
					var results []BatchResult
					ids := make([]FlowID, size)
					var errs []error
					b.ResetTimer()
					for i := 0; i < b.N; i += size {
						results = ctrl.AdmitBatch(items, results)
						for j, r := range results {
							if r.Err != nil {
								b.Fatal(r.Err)
							}
							ids[j] = r.ID
						}
						errs = ctrl.TeardownBatch(ids, errs)
						for _, err := range errs {
							if err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "admits/s")
			})
		}
	}
}
