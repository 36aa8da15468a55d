package sim

import (
	"fmt"

	"ubac/internal/sched"
	"ubac/internal/topology"
)

// engine is the packet-forwarding core both simulators drive: the
// event queue, one scheduler per link server, and the completion step
// that moves a transmitted packet to its next hop or delivers it. The
// simulators differ only in where packets come from (their own events
// on q, handed back through run) and in what a delivery updates.
type engine struct {
	q       *eventQueue
	servers []serverRun
	// maxBacklog[s] is the largest packet backlog seen at server s, and
	// maxHopDelay[s] its largest single-hop queueing delay.
	maxBacklog  []int
	maxHopDelay []float64
	// now is the time of the event being handled.
	now float64
	// route returns the link-server path of a flow's packets.
	route func(flow int) []int
	// deliver is called when a packet finishes its last hop.
	deliver func(p *sched.Packet, now float64)
}

type serverRun struct {
	q       sched.Scheduler
	current *sched.Packet // the packet in transmission; nil when idle
	cap     float64
}

// schedulerKind resolves a configured scheduler name: empty selects
// static priority, the paper's forwarding module, and a name the
// engine could not build is refused before any run state exists.
func schedulerKind(name string) (string, error) {
	switch name {
	case "":
		return "priority", nil
	case "priority", "fifo", "wfq", "drr":
		return name, nil
	}
	return "", fmt.Errorf("sim: unknown scheduler %q", name)
}

// newEngine builds one kind scheduler over classes priority classes at
// every link server of net, with room for queueCap pending events.
func newEngine(net *topology.Network, kind string, classes int, weights []float64, queueCap int) (*engine, error) {
	n := net.NumServers()
	e := &engine{
		q:           newEventQueue(queueCap),
		servers:     make([]serverRun, n),
		maxBacklog:  make([]int, n),
		maxHopDelay: make([]float64, n),
	}
	for i := range e.servers {
		q, err := sched.NewScheduler(kind, classes, weights)
		if err != nil {
			return nil, err
		}
		e.servers[i] = serverRun{q: q, cap: net.ServerCapacity(i)}
	}
	return e, nil
}

// arrive queues p at server srv and starts it if the server is idle.
func (e *engine) arrive(p *sched.Packet, srv int, now float64) {
	s := &e.servers[srv]
	s.q.Enqueue(p, now)
	backlog := s.q.Len()
	if s.current != nil {
		backlog++
	}
	if backlog > e.maxBacklog[srv] {
		e.maxBacklog[srv] = backlog
	}
	if s.current == nil {
		e.startNext(srv, now)
	}
}

// startNext begins transmitting server srv's next queued packet, or
// leaves the server idle when its queue is empty.
func (e *engine) startNext(srv int, now float64) {
	s := &e.servers[srv]
	p, ok := s.q.Dequeue(now)
	if !ok {
		s.current = nil
		return
	}
	wait := now - p.Enqueued
	if wait > e.maxHopDelay[srv] {
		e.maxHopDelay[srv] = wait
	}
	p.Wait += wait
	s.current = p
	e.q.push(event{at: now + p.Size/s.cap, kind: evDone, a: int32(srv)})
}

// run pops events in (at, seq) order until the queue drains. The
// engine handles completions itself; every other event goes to handle.
func (e *engine) run(handle func(event) error) error {
	for e.q.len() > 0 {
		ev := e.q.pop()
		e.now = ev.at
		if ev.kind != evDone {
			if err := handle(ev); err != nil {
				return err
			}
			continue
		}
		srv := int(ev.a)
		p := e.servers[srv].current
		if p == nil {
			return fmt.Errorf("sim: completion on idle server %d", srv)
		}
		route := e.route(p.Flow)
		p.Hop++
		// The server starts its next packet before the finished one
		// moves on: that push order fixes every later seq tiebreak.
		e.startNext(srv, ev.at)
		if p.Hop < len(route) {
			e.arrive(p, route[p.Hop], ev.at)
		} else {
			e.deliver(p, ev.at)
		}
	}
	return nil
}
