package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair, e.g. {reason, capacity}.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and lock-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and lock-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind is the Prometheus family type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled time series inside a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	fn     func() uint64 // CounterFunc: the value is read at scrape
	g      *Gauge
	gfn    func() int64 // GaugeFunc: the value is read at scrape
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
	byKey  map[string]*series
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration takes a lock; recording on the
// returned metrics is lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical {k="v",...} form, keys sorted.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series of (name, labels), creating family and
// series as needed. Re-registering with the same name and labels
// returns the existing metric; a kind mismatch panics (programmer
// error, like prometheus.MustRegister).
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	key := renderLabels(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: key}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram()
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	return s
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels).c
}

// CounterFunc registers a counter whose value is read from fn at every
// scrape, for totals some other structure already keeps (fn must be
// monotone and safe for concurrent use). Nothing is recorded per event.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels).g
}

// GaugeFunc registers a gauge whose value is read from fn at every
// scrape, for levels some other structure already keeps (fn must be
// safe for concurrent use).
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	s.gfn = fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a histogram.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, kindHistogram, labels).h
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, families and series in deterministic (sorted)
// order. Values are read atomically but the scrape as a whole is not a
// consistent snapshot — standard for Prometheus instrumentation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	// Rendered under the registration lock: a class seen for the first
	// time registers its series while the daemon is being scraped.
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				v := s.c.Value()
				if s.fn != nil {
					v = s.fn()
				}
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, v)
			case kindGauge:
				v := s.g.Value()
				if s.gfn != nil {
					v = s.gfn()
				}
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, v)
			case kindHistogram:
				s.h.writePrometheus(&b, f.name, s.labels)
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}
