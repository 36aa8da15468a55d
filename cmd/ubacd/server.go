package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"ubac/internal/admission"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
)

// maxFlowBody bounds POST /v1/flows request bodies; an admission request
// is three short strings, so 64 KiB is already generous.
const maxFlowBody = 64 << 10

// server exposes a deployed admission controller over HTTP. Routes:
//
//	POST   /v1/flows                {"class","src","dst"} → {"id"}
//	POST   /v1/flows:batch          {"admit":[...],"teardown":[...]} → per-op results
//	DELETE /v1/flows/{id}
//	GET    /v1/stats
//	GET    /v1/events?limit=N       admission decision audit trail
//	GET    /v1/headroom?class=&src=&dst=
//	GET    /v1/utilization?class=&link=A-B
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz
//	GET    /debug/pprof/            runtime profiles (net/http/pprof)
//
// Router names are used in the API; the daemon resolves them against the
// configured topology. Every endpoint reads or drives ctrl, the
// backend the wire transport serves too.
// Rejection bodies carry a machine-readable "reason" field: the
// event-schema name wire.Reason gives the controller's error, or
// "unknown_router" for a name the topology does not know.
// statusForReason maps a reason to its HTTP status (429 for rate/shed
// conditions, 503 for capacity conditions, 404 for unknown names, 500
// for "internal").
type server struct {
	net  *topology.Network
	ctrl *admission.Controller
	reg  *telemetry.Registry
	ring *telemetry.Ring

	// Fast-path outcome counters, advanced from the controller's
	// cumulative FastPathStats on each /metrics scrape (the controller
	// counts internally without a registry dependency; the exporter
	// bridges the two under fpMu).
	fpMu                       sync.Mutex
	fpLast                     admission.FastPathStats
	fpHit, fpStale, fpFallback *telemetry.Counter
}

func newServer(net *topology.Network, ctrl *admission.Controller,
	reg *telemetry.Registry, ring *telemetry.Ring) *server {
	s := &server{net: net, ctrl: ctrl, reg: reg, ring: ring}
	const fpHelp = "Admission decisions by fast-path outcome: hit (O(1) budget decrement), stale (lease refill), fallback (exact per-server walk)."
	s.fpHit = reg.Counter("ubac_admit_fastpath_total", fpHelp, telemetry.Label{Key: "outcome", Value: "hit"})
	s.fpStale = reg.Counter("ubac_admit_fastpath_total", fpHelp, telemetry.Label{Key: "outcome", Value: "stale"})
	s.fpFallback = reg.Counter("ubac_admit_fastpath_total", fpHelp, telemetry.Label{Key: "outcome", Value: "fallback"})
	// The registry's footprint: slots ÷ ubac_active_flows is how much of
	// it is idle, and it should track the peak of active flows, not admits.
	reg.GaugeFunc("ubac_registry_slots", "Flow registry slots allocated, live or free.",
		func() int64 { return ctrl.Stats().RegistrySlots })
	// The Go runtime's view, read without stopping the world: a warm
	// daemon's heap holds its ledger and registry, and its GC clock stops.
	reg.CounterFunc("ubac_go_gc_cycles_total", "Completed Go garbage collection cycles.",
		runtimeMetric("/gc/cycles/total:gc-cycles"))
	heapLive := runtimeMetric("/gc/heap/live:bytes")
	reg.GaugeFunc("ubac_go_heap_live_bytes", "Go heap bytes live as of the last garbage collection.",
		func() int64 { return int64(heapLive()) })
	return s
}

// runtimeMetric returns a reader of one uint64 runtime/metrics sample.
func runtimeMetric(name string) func() uint64 {
	return func() uint64 {
		sample := [1]metrics.Sample{{Name: name}}
		metrics.Read(sample[:])
		return sample[0].Value.Uint64()
	}
}

// syncFastPath folds the controller's cumulative fast-path counters
// into the registry as monotone per-outcome series. Hits are derived
// on the controller side and can transiently read low against a
// concurrent stale/fallback increment, so each series only advances.
func (s *server) syncFastPath() {
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	cur := s.ctrl.FastPathStats()
	if cur.Hits > s.fpLast.Hits {
		s.fpHit.Add(cur.Hits - s.fpLast.Hits)
		s.fpLast.Hits = cur.Hits
	}
	if cur.Stale > s.fpLast.Stale {
		s.fpStale.Add(cur.Stale - s.fpLast.Stale)
		s.fpLast.Stale = cur.Stale
	}
	if cur.Fallback > s.fpLast.Fallback {
		s.fpFallback.Add(cur.Fallback - s.fpLast.Fallback)
		s.fpLast.Fallback = cur.Fallback
	}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/flows", s.handleFlows)
	mux.HandleFunc("/v1/flows:batch", s.handleFlowsBatch)
	mux.HandleFunc("/v1/flows/", s.handleFlowByID)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/v1/headroom", s.handleHeadroom)
	mux.HandleFunc("/v1/utilization", s.handleUtilization)
	mux.HandleFunc("/v1/routes", s.handleRoutes)
	// The runtime's profiles, on this mux rather than the default one the
	// pprof package registers itself on. A CPU profile must fit inside
	// the HTTP server's WriteTimeout (?seconds=9 or less).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// statusForReason is the reason → HTTP status mapping for every
// admission and teardown outcome. Client rate conditions (the caller
// can back off and retry) are 429; server capacity conditions are 503;
// names the configuration doesn't know are 404.
func statusForReason(reason string) int {
	switch reason {
	case "policy_token_bucket", "policy_shed":
		return http.StatusTooManyRequests
	case "capacity", "policy_reserve", "shutting_down":
		return http.StatusServiceUnavailable
	case "no_route", "unknown_class", "unknown_flow", "unknown_router":
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.syncFastPath()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// eventOut is one audit-trail event enriched with resolved names.
type eventOut struct {
	telemetry.Event
	SrcName        string `json:"src_name,omitempty"`
	DstName        string `json:"dst_name,omitempty"`
	BottleneckName string `json:"bottleneck_name,omitempty"`
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	limit := 100
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	events := s.ring.Snapshot(limit)
	out := make([]eventOut, 0, len(events))
	for _, ev := range events {
		eo := eventOut{Event: ev}
		if ev.Src >= 0 && ev.Src < s.net.NumRouters() {
			eo.SrcName = s.net.Router(ev.Src).Name
		}
		if ev.Dst >= 0 && ev.Dst < s.net.NumRouters() {
			eo.DstName = s.net.Router(ev.Dst).Name
		}
		if ev.Bottleneck >= 0 && ev.Bottleneck < s.net.NumServers() {
			eo.BottleneckName = s.net.ServerName(ev.Bottleneck)
		}
		out = append(out, eo)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.ring.Total(),
		"events": out,
	})
}

// resolveRouter accepts a router name or numeric index.
func (s *server) resolveRouter(spec string) (int, error) {
	if id, ok := s.net.RouterByName(spec); ok {
		return id, nil
	}
	if n, err := strconv.Atoi(spec); err == nil && n >= 0 && n < s.net.NumRouters() {
		return n, nil
	}
	return 0, fmt.Errorf("unknown router %q", spec)
}

// routeOut is one configured route with its verified end-to-end bound.
type routeOut struct {
	Class    string  `json:"class"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	Hops     int     `json:"hops"`
	BoundSec float64 `json:"bound_seconds"`
}

// handleRoutes lists every configured route with its verified
// worst-case end-to-end queueing bound, served from the controller's
// epoch-keyed route-delay cache (lookups show up in /metrics as
// ubac_route_cache_lookups_total). ?class= filters to one class.
func (s *server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	names := s.ctrl.Classes()
	if want := r.URL.Query().Get("class"); want != "" {
		names = []string{want}
	}
	out := make([]routeOut, 0, 64)
	for _, name := range names {
		set, err := s.ctrl.ClassRoutes(name)
		if err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		sums, err := s.ctrl.RouteDelays(name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		for i := 0; i < set.Len(); i++ {
			rt := set.Route(i)
			out = append(out, routeOut{
				Class:    name,
				Src:      s.net.Router(rt.Src).Name,
				Dst:      s.net.Router(rt.Dst).Name,
				Hops:     rt.Hops(),
				BoundSec: sums[i],
			})
		}
	}
	hits, misses := s.ctrl.DelayCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"routes":       out,
		"cache_hits":   hits,
		"cache_misses": misses,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.ctrl.Stats())
}

func (s *server) handleHeadroom(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	src, err := s.resolveRouter(q.Get("src"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	dst, err := s.resolveRouter(q.Get("dst"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	hr, err := s.ctrl.Headroom(q.Get("class"), src, dst)
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"headroom": hr})
}

func (s *server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	link := q.Get("link")
	parts := strings.SplitN(link, "-", 2)
	if len(parts) != 2 {
		writeErr(w, http.StatusBadRequest, "link must be SrcRouter-DstRouter")
		return
	}
	a, err := s.resolveRouter(parts[0])
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	bb, err := s.resolveRouter(parts[1])
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	srv, ok := s.net.ServerFor(a, bb)
	if !ok {
		writeErr(w, http.StatusNotFound, "routers not adjacent")
		return
	}
	u, err := s.ctrl.Utilization(q.Get("class"), srv)
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"utilization": u})
}
