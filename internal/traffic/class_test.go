package traffic

import (
	"math"
	"testing"
)

func TestLeakyBucketValidate(t *testing.T) {
	good := LeakyBucket{Burst: 640, Rate: 32e3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid bucket rejected: %v", err)
	}
	bad := []LeakyBucket{
		{Burst: -1, Rate: 1},
		{Burst: 1, Rate: 0},
		{Burst: 1, Rate: -5},
		{Burst: math.NaN(), Rate: 1},
		{Burst: 1, Rate: math.Inf(1)},
	}
	for _, lb := range bad {
		if err := lb.Validate(); err == nil {
			t.Errorf("invalid bucket %+v accepted", lb)
		}
	}
}

func TestConform(t *testing.T) {
	lb := LeakyBucket{Burst: 1000, Rate: 100}
	// Start full, send the whole burst.
	tok, ok := lb.Conform(1000, 0, 1000)
	if !ok || tok != 0 {
		t.Errorf("full burst: tokens=%g ok=%v", tok, ok)
	}
	// Immediately sending more must fail.
	if _, ok := lb.Conform(0, 0, 1); ok {
		t.Error("overdraft allowed")
	}
	// After 1 s, 100 tokens refilled.
	tok, ok = lb.Conform(0, 1, 100)
	if !ok || math.Abs(tok) > 1e-9 {
		t.Errorf("refill: tokens=%g ok=%v", tok, ok)
	}
	// Refill saturates at the burst size.
	tok, _ = lb.Conform(0, 1e6, 0)
	if tok != 1000 {
		t.Errorf("saturation: tokens=%g want 1000", tok)
	}
}

func TestClassValidate(t *testing.T) {
	v := Voice()
	if err := v.Validate(); err != nil {
		t.Errorf("voice invalid: %v", err)
	}
	if !v.RealTime() {
		t.Error("voice not real-time")
	}
	be := BestEffort(1)
	if err := be.Validate(); err != nil {
		t.Errorf("best-effort invalid: %v", err)
	}
	if be.RealTime() {
		t.Error("best-effort reported real-time")
	}
	bad := []Class{
		{Name: "", Bucket: v.Bucket, Deadline: 1},
		{Name: "x", Bucket: LeakyBucket{Rate: 0}, Deadline: 1},
		{Name: "x", Bucket: v.Bucket, Deadline: 0},
		{Name: "x", Bucket: v.Bucket, Deadline: math.NaN()},
		{Name: "x", Bucket: v.Bucket, Deadline: 1, Priority: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad class %d accepted", i)
		}
	}
}

func TestVoiceMatchesPaper(t *testing.T) {
	v := Voice()
	if v.Bucket.Burst != 640 || v.Bucket.Rate != 32e3 || v.Deadline != 0.1 {
		t.Errorf("voice parameters drifted from the paper: %+v", v)
	}
}

func TestNewClassSetOrdering(t *testing.T) {
	video := Class{Name: "video", Bucket: LeakyBucket{Burst: 15e3, Rate: 1.5e6}, Deadline: 0.2, Priority: 1}
	s, err := NewClassSet(BestEffort(2), video, Voice())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	names := []string{s.Class(0).Name, s.Class(1).Name, s.Class(2).Name}
	want := []string{"voice", "video", "best-effort"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("order[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if rt := s.RealTimeClasses(); len(rt) != 2 {
		t.Errorf("real-time classes = %d, want 2", len(rt))
	}
	if c, ok := s.ByName("video"); !ok || c.Priority != 1 {
		t.Error("ByName(video) failed")
	}
	if _, ok := s.ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
	if i, ok := s.Index("voice"); !ok || i != 0 {
		t.Errorf("Index(voice) = %d,%v", i, ok)
	}
}

func TestNewClassSetRejections(t *testing.T) {
	if _, err := NewClassSet(); err == nil {
		t.Error("empty set accepted")
	}
	v := Voice()
	dupPrio := v
	dupPrio.Name = "voice2"
	if _, err := NewClassSet(v, dupPrio); err == nil {
		t.Error("duplicate priority accepted")
	}
	dupName := v
	dupName.Priority = 3
	if _, err := NewClassSet(v, dupName); err == nil {
		t.Error("duplicate name accepted")
	}
	// Best effort above a real-time class.
	be := BestEffort(0)
	rt := v
	rt.Priority = 1
	if _, err := NewClassSet(be, rt); err == nil {
		t.Error("best effort above real-time accepted")
	}
}

func TestClassesCopy(t *testing.T) {
	s, err := NewClassSet(Voice(), BestEffort(1))
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Classes()
	cs[0].Name = "mutated"
	if s.Class(0).Name != "voice" {
		t.Error("Classes() exposed internal storage")
	}
}
