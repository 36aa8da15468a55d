package traffic

import (
	"math"
	"testing"
)

// FuzzLeakyBucketConform checks the token bucket never goes negative and
// never exceeds the burst.
func FuzzLeakyBucketConform(f *testing.F) {
	f.Add(1000.0, 100.0, 10.0, 0.5, 50.0)
	f.Add(640.0, 32e3, 640.0, 0.02, 640.0)
	f.Fuzz(func(t *testing.T, burst, rate, tokens, dt, amount float64) {
		if burst < 0 || burst > 1e12 || rate <= 0 || rate > 1e12 ||
			tokens < 0 || tokens > burst || dt < 0 || dt > 1e6 ||
			amount < 0 || amount > 1e12 ||
			math.IsNaN(burst+rate+tokens+dt+amount) {
			t.Skip()
		}
		lb := LeakyBucket{Burst: burst, Rate: rate}
		newTokens, ok := lb.Conform(tokens, dt, amount)
		if newTokens < -1e-9 || newTokens > burst+1e-9 {
			t.Fatalf("tokens out of range: %g (burst %g)", newTokens, burst)
		}
		if ok && amount > math.Min(burst, tokens+rate*dt)+1e-9 {
			t.Fatalf("nonconforming send accepted: %g", amount)
		}
	})
}
