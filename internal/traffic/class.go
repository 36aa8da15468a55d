// Package traffic implements the paper's traffic model (Section 3): the
// DiffServ classes and the leaky-bucket envelope that polices each flow.
// Amounts are in bits, rates in bits/second and times in seconds.
package traffic

import (
	"fmt"
	"math"
)

// Class describes one DiffServ traffic class (Section 3): all flows of a
// class share the same leaky-bucket envelope, the same end-to-end
// deadline, and the same static priority at every link server.
// Priority 0 is the highest; larger values are served later. The
// best-effort class is modeled with Deadline = +Inf.
type Class struct {
	Name     string
	Bucket   LeakyBucket // per-flow source envelope (T, ρ)
	Deadline float64     // D, end-to-end deadline in seconds (Inf = best effort)
	Priority int         // static priority, 0 = highest
}

// RealTime reports whether the class carries a finite deadline.
func (c Class) RealTime() bool { return !math.IsInf(c.Deadline, 1) }

// Validate checks the class parameters.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("traffic: class needs a name")
	}
	if err := c.Bucket.Validate(); err != nil {
		return fmt.Errorf("traffic: class %q: %w", c.Name, err)
	}
	if c.Deadline <= 0 || math.IsNaN(c.Deadline) {
		return fmt.Errorf("traffic: class %q: invalid deadline %g", c.Name, c.Deadline)
	}
	if c.Priority < 0 {
		return fmt.Errorf("traffic: class %q: negative priority", c.Name)
	}
	return nil
}

// Voice returns the paper's experimental real-time class (Section 6):
// leaky bucket with 640-bit bursts at 32 kb/s and a 100 ms end-to-end
// deadline — a Voice-over-IP profile.
func Voice() Class {
	return Class{
		Name:     "voice",
		Bucket:   LeakyBucket{Burst: 640, Rate: 32e3},
		Deadline: 100e-3,
		Priority: 0,
	}
}

// BestEffort returns the paper's low-priority data class. The bucket is
// nominal (best-effort traffic is not policed and receives no guarantee);
// priority sits below prio-1 real-time classes.
func BestEffort(priority int) Class {
	return Class{
		Name:     "best-effort",
		Bucket:   LeakyBucket{Burst: 12e3, Rate: 1e6},
		Deadline: math.Inf(1),
		Priority: priority,
	}
}

// ClassSet is an ordered collection of classes, highest priority first.
type ClassSet struct {
	classes []Class
}

// NewClassSet validates and orders the classes by priority. Priorities
// must be unique; at most one best-effort (infinite-deadline) class is
// allowed and it must have the lowest priority.
func NewClassSet(classes ...Class) (*ClassSet, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("traffic: class set needs at least one class")
	}
	seenPrio := make(map[int]string)
	seenName := make(map[string]bool)
	ordered := append([]Class(nil), classes...)
	for _, c := range ordered {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if other, dup := seenPrio[c.Priority]; dup {
			return nil, fmt.Errorf("traffic: classes %q and %q share priority %d", other, c.Name, c.Priority)
		}
		seenPrio[c.Priority] = c.Name
		if seenName[c.Name] {
			return nil, fmt.Errorf("traffic: duplicate class name %q", c.Name)
		}
		seenName[c.Name] = true
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].Priority < ordered[i].Priority {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	for i, c := range ordered {
		if !c.RealTime() && i != len(ordered)-1 {
			return nil, fmt.Errorf("traffic: best-effort class %q must have the lowest priority", c.Name)
		}
	}
	return &ClassSet{classes: ordered}, nil
}

// Len returns the number of classes.
func (s *ClassSet) Len() int { return len(s.classes) }

// Class returns the i-th class in priority order (0 = highest).
func (s *ClassSet) Class(i int) Class { return s.classes[i] }

// Classes returns a copy of the priority-ordered class list.
func (s *ClassSet) Classes() []Class { return append([]Class(nil), s.classes...) }

// RealTimeClasses returns the finite-deadline classes in priority order.
func (s *ClassSet) RealTimeClasses() []Class {
	var rt []Class
	for _, c := range s.classes {
		if c.RealTime() {
			rt = append(rt, c)
		}
	}
	return rt
}

// ByName returns the class with the given name.
func (s *ClassSet) ByName(name string) (Class, bool) {
	for _, c := range s.classes {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// Index returns the position of the named class in priority order.
func (s *ClassSet) Index(name string) (int, bool) {
	for i, c := range s.classes {
		if c.Name == name {
			return i, true
		}
	}
	return -1, false
}
