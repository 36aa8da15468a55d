// Package signaling realizes the run-time admission control of Section 4
// the way it deploys in a real DiffServ network: as hop-by-hop
// reservation signaling between per-router agents, rather than the
// centralized ledger of internal/admission (which models the same
// decision procedure for analysis and benchmarks).
//
// Each router runs an agent goroutine owning the utilization state of its
// local output link servers. Flow establishment walks the configured
// route with a two-phase protocol:
//
//	RESERVE  — forwarded hop by hop; each agent performs the paper's
//	           local utilization test (used + ρ ≤ α·C) on its outgoing
//	           server and tentatively reserves.
//	COMMIT   — sent by the egress back along the path on success.
//	RELEASE  — unwinds tentative reservations when any hop rejects, and
//	           tears down committed flows on termination.
//
// The decision remains O(path length) with no per-flow state in core
// agents beyond the active reservation counters — the paper's
// scalability property, now with the coordination costs of a
// distributed system made explicit (the benchmarks compare this against
// the centralized ledger).
package signaling

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ubac/internal/delay"
	"ubac/internal/routes"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// Errors returned by Establish and Terminate.
var (
	// ErrRejected means some hop's utilization test failed.
	ErrRejected = errors.New("signaling: reservation rejected")
	// ErrNoRoute means the configuration carries no route for the pair.
	ErrNoRoute = errors.New("signaling: no configured route")
	// ErrUnknownFlow means the flow is not established.
	ErrUnknownFlow = errors.New("signaling: unknown flow")
	// ErrStopped means the network has been shut down.
	ErrStopped = errors.New("signaling: network stopped")
)

// msgKind enumerates protocol messages.
type msgKind int

const (
	msgReserve msgKind = iota
	msgRelease
	msgQuery
	msgStop
)

// message is one signaling PDU delivered to an agent.
type message struct {
	kind  msgKind
	key   int     // class-qualified server key: class·numServers + server
	rate  float64 // bits/second to reserve/release
	limit float64 // α·C for the (class, server) pair (configured at setup)
	reply chan reply
}

type reply struct {
	ok   bool
	used float64
}

// agent owns the per-class reservation counters of one router's
// outgoing servers.
type agent struct {
	inbox chan message
	used  map[int]float64 // per class-qualified server key, bits/second
}

func (a *agent) run() {
	for m := range a.inbox {
		switch m.kind {
		case msgReserve:
			if a.used[m.key]+m.rate > m.limit {
				m.reply <- reply{ok: false, used: a.used[m.key]}
				continue
			}
			a.used[m.key] += m.rate
			m.reply <- reply{ok: true, used: a.used[m.key]}
		case msgRelease:
			a.used[m.key] -= m.rate
			if a.used[m.key] < 0 {
				a.used[m.key] = 0
			}
			if m.reply != nil {
				m.reply <- reply{ok: true, used: a.used[m.key]}
			}
		case msgQuery:
			m.reply <- reply{ok: true, used: a.used[m.key]}
		case msgStop:
			m.reply <- reply{ok: true}
			return
		}
	}
}

// ClassConfig mirrors admission.ClassConfig for the signaling plane.
type ClassConfig struct {
	Class  traffic.Class
	Alpha  float64
	Routes *routes.Set
}

// FlowID identifies an established flow.
type FlowID uint64

// Network is the signaling plane: one agent per router plus the route
// table from configuration. Create with Start; Stop shuts the agents
// down.
type Network struct {
	net     *topology.Network
	classes []ClassConfig
	byName  map[string]int
	routeOf [][]int32
	limits  [][]float64

	agents []*agent

	mu     sync.Mutex
	flows  map[FlowID]flowRecord
	nextID atomic.Uint64

	stopped atomic.Bool

	// sink receives per-decision telemetry (same schema as the
	// centralized controller, so both planes share dashboards).
	sink        telemetry.Sink
	telemetered bool
}

type flowRecord struct {
	class int
	route int32
}

// Start validates the configuration and launches one agent goroutine per
// router.
func Start(net *topology.Network, classes []ClassConfig) (*Network, error) {
	if net == nil {
		return nil, fmt.Errorf("signaling: nil network")
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("signaling: no classes")
	}
	n := &Network{
		net:    net,
		byName: make(map[string]int),
		flows:  make(map[FlowID]flowRecord),
		sink:   telemetry.Nop{},
	}
	nrt := net.NumRouters()
	for i, cc := range classes {
		if err := cc.Class.Validate(); err != nil {
			return nil, err
		}
		if !(cc.Alpha > 0 && cc.Alpha < 1) {
			return nil, fmt.Errorf("signaling: class %q alpha %g out of (0,1)", cc.Class.Name, cc.Alpha)
		}
		if cc.Routes == nil || cc.Routes.Network() != net {
			return nil, fmt.Errorf("signaling: class %q routes missing or foreign", cc.Class.Name)
		}
		if _, dup := n.byName[cc.Class.Name]; dup {
			return nil, fmt.Errorf("signaling: duplicate class %q", cc.Class.Name)
		}
		n.byName[cc.Class.Name] = i
		n.classes = append(n.classes, cc)

		limits := make([]float64, net.NumServers())
		for s := range limits {
			limits[s] = cc.Alpha * net.ServerCapacity(s)
		}
		n.limits = append(n.limits, limits)

		table := make([]int32, nrt*nrt)
		for j := range table {
			table[j] = -1
		}
		for r := 0; r < cc.Routes.Len(); r++ {
			rt := cc.Routes.Route(r)
			table[rt.Src*nrt+rt.Dst] = int32(r)
		}
		n.routeOf = append(n.routeOf, table)
	}
	n.agents = make([]*agent, nrt)
	for i := range n.agents {
		n.agents[i] = &agent{inbox: make(chan message, 16), used: make(map[int]float64)}
		go n.agents[i].run()
	}
	return n, nil
}

// StartVerified runs the Figure 2 configuration-time verification
// against the given delay model before bringing the signaling plane up,
// and refuses to start on an unsafe assignment — the distributed
// counterpart of the daemon's "a running plane is the proof the
// deadlines hold" contract. The model's solver settings apply.
// Classes must be in priority order (highest first). The verification
// result is returned alongside the running network for operator
// inspection.
func StartVerified(net *topology.Network, m *delay.Model, classes []ClassConfig) (*Network, *delay.VerifyResult, error) {
	if m == nil {
		return nil, nil, fmt.Errorf("signaling: nil delay model")
	}
	if m.Network() != net {
		return nil, nil, fmt.Errorf("signaling: delay model built over a different network")
	}
	inputs := make([]delay.ClassInput, 0, len(classes))
	for _, cc := range classes {
		inputs = append(inputs, delay.ClassInput{Class: cc.Class, Alpha: cc.Alpha, Routes: cc.Routes})
	}
	v, err := m.Verify(inputs)
	if err != nil {
		return nil, nil, err
	}
	if !v.Safe {
		return nil, v, fmt.Errorf("signaling: configuration does not verify (worst slack %.6g s); refusing to start", v.WorstSlack)
	}
	n, err := Start(net, classes)
	if err != nil {
		return nil, v, err
	}
	return n, v, nil
}

// ownerOf returns the agent responsible for a link server: the router at
// its transmitting end.
func (n *Network) ownerOf(server int) *agent {
	tail, _, _ := n.net.Server(server)
	return n.agents[tail]
}

// SetSink routes per-decision telemetry into s (nil restores the no-op
// default). Set it before the network serves concurrent traffic.
func (n *Network) SetSink(s telemetry.Sink) {
	if s == nil {
		s = telemetry.Nop{}
	}
	n.sink = s
	n.telemetered = telemetry.Active(s)
}

// emit reports one decision; callers guard on n.telemetered.
func (n *Network) emit(id FlowID, class string, src, dst int, rate float64,
	v telemetry.Verdict, bottleneck int, start time.Time) {
	n.sink.Decision(telemetry.Decision{
		FlowID:     uint64(id),
		Class:      class,
		Src:        src,
		Dst:        dst,
		Rate:       rate,
		Verdict:    v,
		Bottleneck: bottleneck,
		Latency:    time.Since(start),
	})
}

// Establish runs the two-phase reservation along the configured route of
// (class, src, dst). On success it returns the flow ID; on rejection it
// unwinds all tentative reservations and returns ErrRejected (wrapped
// with the failing hop).
func (n *Network) Establish(class string, src, dst int) (FlowID, error) {
	var start time.Time
	if n.telemetered {
		start = time.Now()
	}
	if n.stopped.Load() {
		return 0, ErrStopped
	}
	ci, ok := n.byName[class]
	if !ok {
		if n.telemetered {
			n.emit(0, class, src, dst, 0, telemetry.RejectedUnknownClass, -1, start)
		}
		return 0, fmt.Errorf("signaling: unknown class %q", class)
	}
	rate := n.classes[ci].Class.Bucket.Rate
	nrt := n.net.NumRouters()
	if src < 0 || src >= nrt || dst < 0 || dst >= nrt || src == dst {
		if n.telemetered {
			n.emit(0, class, src, dst, rate, telemetry.RejectedNoRoute, -1, start)
		}
		return 0, ErrNoRoute
	}
	ri := n.routeOf[ci][src*nrt+dst]
	if ri < 0 {
		if n.telemetered {
			n.emit(0, class, src, dst, rate, telemetry.RejectedNoRoute, -1, start)
		}
		return 0, ErrNoRoute
	}
	servers := n.classes[ci].Routes.Route(int(ri)).Servers

	nsrv := n.net.NumServers()
	reply1 := make(chan reply, 1)
	for i, s := range servers {
		n.ownerOf(s).inbox <- message{
			kind: msgReserve, key: ci*nsrv + s, rate: rate,
			limit: n.limits[ci][s], reply: reply1,
		}
		if r := <-reply1; !r.ok {
			// RELEASE back along the partial path.
			for _, t := range servers[:i] {
				n.ownerOf(t).inbox <- message{kind: msgRelease, key: ci*nsrv + t, rate: rate}
			}
			if n.telemetered {
				n.emit(0, class, src, dst, rate, telemetry.RejectedCapacity, s, start)
			}
			return 0, fmt.Errorf("%w at server %s", ErrRejected, n.net.ServerName(s))
		}
	}
	id := FlowID(n.nextID.Add(1))
	n.mu.Lock()
	n.flows[id] = flowRecord{class: ci, route: ri}
	n.mu.Unlock()
	if n.telemetered {
		n.emit(id, class, src, dst, rate, telemetry.Admitted, -1, start)
	}
	return id, nil
}

// Terminate releases an established flow's reservations along its route.
func (n *Network) Terminate(id FlowID) error {
	var start time.Time
	if n.telemetered {
		start = time.Now()
	}
	if n.stopped.Load() {
		return ErrStopped
	}
	n.mu.Lock()
	rec, ok := n.flows[id]
	if ok {
		delete(n.flows, id)
	}
	n.mu.Unlock()
	if !ok {
		return ErrUnknownFlow
	}
	rate := n.classes[rec.class].Class.Bucket.Rate
	nsrv := n.net.NumServers()
	rt := n.classes[rec.class].Routes.Route(int(rec.route))
	for _, s := range rt.Servers {
		n.ownerOf(s).inbox <- message{kind: msgRelease, key: rec.class*nsrv + s, rate: rate}
	}
	if n.telemetered {
		n.emit(id, n.classes[rec.class].Class.Name, rt.Src, rt.Dst, rate,
			telemetry.TornDown, -1, start)
	}
	return nil
}

// Utilization queries the owning agent for the fraction of a server's
// capacity currently reserved by the named class.
func (n *Network) Utilization(class string, server int) (float64, error) {
	if n.stopped.Load() {
		return 0, ErrStopped
	}
	ci, ok := n.byName[class]
	if !ok {
		return 0, fmt.Errorf("signaling: unknown class %q", class)
	}
	if server < 0 || server >= n.net.NumServers() {
		return 0, fmt.Errorf("signaling: server %d out of range", server)
	}
	reply1 := make(chan reply, 1)
	n.ownerOf(server).inbox <- message{kind: msgQuery, key: ci*n.net.NumServers() + server, reply: reply1}
	r := <-reply1
	return r.used / n.net.ServerCapacity(server), nil
}

// Active returns the number of established flows.
func (n *Network) Active() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.flows)
}

// Stop shuts down all agents. Pending operations complete first; later
// calls return ErrStopped. Stop is idempotent.
func (n *Network) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	reply1 := make(chan reply, 1)
	for _, a := range n.agents {
		a.inbox <- message{kind: msgStop, reply: reply1}
		<-reply1
	}
}
