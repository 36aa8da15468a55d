package routing

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// selectionDigest hashes everything a selection decides: the routes in
// order (endpoints and server paths), the verdict, the pairs routed, the
// bits of WorstDelay and the candidates tried.
func selectionDigest(set *routes.Set, rep *Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(set.Len()))
	for i := 0; i < set.Len(); i++ {
		r := set.Route(i)
		u64(uint64(r.Src))
		u64(uint64(r.Dst))
		u64(uint64(len(r.Servers)))
		for _, s := range r.Servers {
			u64(uint64(s))
		}
	}
	safe := uint64(0)
	if rep.Safe {
		safe = 1
	}
	u64(safe)
	u64(uint64(rep.PairsRouted))
	u64(math.Float64bits(rep.WorstDelay))
	u64(uint64(rep.CandidatesTried))
	return h.Sum64()
}

// Selection digests of the portfolio's four default members and the
// backtracking ablation over six topologies and four utilizations,
// recorded before the weighted Yen moved onto reused scratch and the Y
// sweep onto the route-prefix forest. Both rewrites promise the same
// routes, verdicts, WorstDelay bits and candidate counts; a digest
// change here is a route-selection change, and one in the MCI rows
// breaks every data dir written at that configuration (see
// core.TestGoldenMCIFingerprintPinned). Identical digests across rows
// are selections that fail on their first pair (no routes). amd64 only:
// fused multiply-adds elsewhere may break float ties differently.
func TestGoldenSelectionDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64; FMA fusing may move float ties elsewhere")
	}
	if raceEnabled {
		t.Skip("sequential selections only; the race detector would add ~20 s and find nothing")
	}
	members := []struct {
		name string
		sel  Selector
	}{
		{"delay-weighted", Heuristic{DelayWeighted: true}},
		{"lookahead", Heuristic{}},
		{"cheap", Heuristic{Mode: Cheap}},
		{"sp-guided", Heuristic{K: 1, LengthSlack: 1}},
		{"backtracking", Backtracking{MaxBacktracks: 40}},
	}
	pins := []struct {
		spec   string
		alpha  float64
		digest [5]uint64
	}{
		{"mci", 0.2, [5]uint64{0x8bb927cd094ff32d, 0x8bb927cd094ff32d, 0xc9a5e777d15e7085, 0x19d6b176523c9567, 0xc9a5e777d15e7085}},
		{"mci", 0.3, [5]uint64{0xbc3f664369b7fd10, 0xb2dd154e8d066b9f, 0x32756e686fb53fdb, 0xd3e788143e1da39d, 0x32756e686fb53fdb}},
		{"mci", 0.4, [5]uint64{0xd78ee5a3aa311176, 0xc09796460aadf28a, 0x3435a1fd37a7bb42, 0x05962c85e11bdf07, 0x3435a1fd37a7bb42}},
		{"mci", 0.5, [5]uint64{0x87ae2e7e217cbaa7, 0x849c9483a51a4322, 0x1bb9a8c75fca6de0, 0x8edd393b06bf18b1, 0xec834596eb309f1d}},
		{"nsfnet", 0.2, [5]uint64{0x40a3640d34fa76e3, 0x40a3640d34fa76e3, 0xa8f325c3238fe2ad, 0xbc578e9b43fb9788, 0xa8f325c3238fe2ad}},
		{"nsfnet", 0.3, [5]uint64{0x52b73ceb739248f3, 0x29e6565528f5de1b, 0x1400c91810b0806a, 0x1d5d96ef556efd2a, 0x1400c91810b0806a}},
		{"nsfnet", 0.4, [5]uint64{0x6adbb83839aa6817, 0x8b82d716dbc123f7, 0xd60961206b43efc2, 0xbd6ad5e8ccd385f8, 0xd60961206b43efc2}},
		{"nsfnet", 0.5, [5]uint64{0x3d8c1705b1c778ef, 0xebd7a6825e88123e, 0x674bc325d3eee3bd, 0xbf6a7ed770668838, 0xe139eeb5b00abe2b}},
		{"grid:5x5", 0.2, [5]uint64{0x4f31b6794cc43d30, 0x14532fe6d7c90b6f, 0x91600b79329d1a14, 0x15cf8cc1b7c92763, 0x91600b79329d1a14}},
		{"grid:5x5", 0.3, [5]uint64{0xdc2cac0a8f913c7b, 0x92b7d54afd22a92d, 0x9788ed57775974a7, 0x6c4f50157363eef8, 0xd7d390b3e87ef47b}},
		{"grid:5x5", 0.4, [5]uint64{0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x21dbd703e6071224, 0x38acd6554870ad4d}},
		{"grid:5x5", 0.5, [5]uint64{0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x21dbd703e6071224, 0x38acd6554870ad4d}},
		{"ring:8", 0.2, [5]uint64{0x6bf1e84fbad5cdf0, 0x6bf1e84fbad5cdf0, 0x7f6e94eeb0f46977, 0x9287d675186cb2b0, 0x7f6e94eeb0f46977}},
		{"ring:8", 0.3, [5]uint64{0x65ff4dbf41429957, 0x65ff4dbf41429957, 0x2d32c0036db00546, 0x9cf5f9b5436bd941, 0x2d32c0036db00546}},
		{"ring:8", 0.4, [5]uint64{0xdb0b3ffb6785aa3a, 0xdb0b3ffb6785aa3a, 0xf9b572350772aa55, 0xde77a9dc4eb611ed, 0xf9b572350772aa55}},
		{"ring:8", 0.5, [5]uint64{0x094565a18c184fb6, 0x094565a18c184fb6, 0x3df79c290a0ec2d4, 0x12cc37a2c0c4fba8, 0xb786aa1bfe53c096}},
		{"random:20:12:1", 0.2, [5]uint64{0xcf53e96ad31b85eb, 0xd13c25d4932ad3ed, 0x6ffb1fe3f7cfbfbd, 0xbc0f716c3af2e3a0, 0x6ffb1fe3f7cfbfbd}},
		{"random:20:12:1", 0.3, [5]uint64{0x893d0a15c08d4c24, 0xe2be119f06318cc8, 0x2905d97358f2dd20, 0xbc2fbcb897b8a5f7, 0x2905d97358f2dd20}},
		{"random:20:12:1", 0.4, [5]uint64{0x00d3cf731315b60f, 0x11ab6969c3037b55, 0xfb3191bcfa0f44c2, 0x74f309cb2979b809, 0x678d688a04960805}},
		{"random:20:12:1", 0.5, [5]uint64{0x432decf80a7387e9, 0xbf19091c3630b06d, 0x94b03ba59f57a69b, 0x74dd8bc634ff4fc7, 0x4ae71c1fbb2ee4c4}},
		{"random:30:20:2", 0.2, [5]uint64{0xff20f1fd359d7cc5, 0x0add6ab00b780054, 0x42ad80d0027690a9, 0x38ca79f2d2d241ad, 0x42ad80d0027690a9}},
		{"random:30:20:2", 0.3, [5]uint64{0x257f4b00b1908880, 0x7149861034418644, 0x262cd76046c6d16a, 0x3fd77d154e3a479c, 0x355e1930440983eb}},
		{"random:30:20:2", 0.4, [5]uint64{0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x21dbd703e6071224, 0x38acd6554870ad4d}},
		{"random:30:20:2", 0.5, [5]uint64{0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x38acd6554870ad4d, 0x21dbd703e6071224, 0x38acd6554870ad4d}},
	}
	nets := map[string]*delay.Model{}
	for _, pin := range pins {
		m, ok := nets[pin.spec]
		if !ok {
			net, err := topology.Parse(pin.spec)
			if err != nil {
				t.Fatal(err)
			}
			m = delay.NewModel(net)
			nets[pin.spec] = m
		}
		for i, mb := range members {
			set, rep, err := mb.sel.Select(m, Request{Class: traffic.Voice(), Alpha: pin.alpha})
			if err != nil {
				t.Fatal(err)
			}
			if got := selectionDigest(set, rep); got != pin.digest[i] {
				t.Errorf("%s α=%.1f %s: digest %#016x, pinned %#016x (safe=%v pairs=%d worst=%.17g tried=%d)",
					pin.spec, pin.alpha, mb.name, got, pin.digest[i], rep.Safe, rep.PairsRouted, rep.WorstDelay, rep.CandidatesTried)
			}
		}
	}
}

// Golden regression pins for the paper's example topology: MCI backbone,
// shortest-path routing of all edge pairs, voice class. The constants
// were produced by the solver at default settings; a future refactor
// that shifts any delay bound past 1e-9 relative (or changes the
// iteration count, the verdict, or the route count) fails here. The
// tolerance is relative rather than bit-exact so a compiler that fuses
// multiply-adds differently does not trip the pin.
func TestGoldenMCIShortestPathPinned(t *testing.T) {
	pins := []struct {
		alpha          float64
		safe           bool
		routes         int
		iterations     int
		maxServerDelay float64
		worstRoute     float64
	}{
		{0.30, true, 342, 38, 0.015470547030753833, 0.054258625748725586},
		{0.40, false, 342, 73, 0.039493327155680935, 0.13007464319330458},
	}
	net := topology.MCI()
	approx := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
	}
	for _, pin := range pins {
		m := delay.NewModel(net)
		set, rep, err := SP{}.Select(m, Request{Class: traffic.Voice(), Alpha: pin.alpha})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Safe != pin.safe || set.Len() != pin.routes {
			t.Fatalf("alpha=%.2f: safe=%v routes=%d, pinned safe=%v routes=%d",
				pin.alpha, rep.Safe, set.Len(), pin.safe, pin.routes)
		}
		in := delay.ClassInput{Class: traffic.Voice(), Alpha: pin.alpha, Routes: set}
		res, err := m.SolveTwoClass(in)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations != pin.iterations {
			t.Fatalf("alpha=%.2f: converged=%v after %d iterations, pinned %d",
				pin.alpha, res.Converged, res.Iterations, pin.iterations)
		}
		if got := res.MaxServerDelay(); !approx(got, pin.maxServerDelay) {
			t.Fatalf("alpha=%.2f: max server delay %.17g, pinned %.17g",
				pin.alpha, got, pin.maxServerDelay)
		}
		if worst, _ := set.MaxRouteDelay(res.D); !approx(worst, pin.worstRoute) {
			t.Fatalf("alpha=%.2f: worst route bound %.17g, pinned %.17g",
				pin.alpha, worst, pin.worstRoute)
		}
	}
}
