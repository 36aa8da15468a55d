package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ubac/internal/admission"
	"ubac/internal/wire"
)

// wireDriver drives a live ubacd over the binary wire transport
// (-transport wire): every admit call is one framed request on one of
// the client's pipelined connections, so -conc workers sharing a
// connection form exactly the pipeline the server coalesces into
// AdmitBatch calls.
type wireDriver struct {
	c     *wire.Client
	class uint32
	pool  sync.Pool // *wireScratch
}

type wireScratch struct {
	reqs     []wire.AdmitReq
	res      []wire.AdmitResult
	statuses []uint32
}

// newWireDriver dials the daemon's wire listener, resolves the class
// to its wire index, and discovers the admittable pairs over the
// protocol itself (no topology flag needed, like http mode).
func newWireDriver(target, class string, conns, pipeline int) (*wireDriver, []pairSpec, error) {
	addr := strings.TrimPrefix(strings.TrimPrefix(target, "http://"), "tcp://")
	c, err := wire.Dial(wire.ClientOptions{Addr: addr, Conns: conns, Pipeline: pipeline})
	if err != nil {
		return nil, nil, fmt.Errorf("wire dial %s: %w", addr, err)
	}
	idx, ok := c.ClassIndex(class)
	if !ok {
		c.Close()
		return nil, nil, fmt.Errorf("wire: daemon has no class %q (classes: %s)", class, strings.Join(c.Classes(), ", "))
	}
	routes, err := c.Routes(idx)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	pairs := make([]pairSpec, 0, len(routes))
	for _, r := range routes {
		pairs = append(pairs, pairSpec{src: int(r.Src), dst: int(r.Dst)})
	}
	d := &wireDriver{c: c, class: idx}
	d.pool.New = func() any { return &wireScratch{} }
	return d, pairs, nil
}

func (d *wireDriver) close() error { return d.c.Close() }

func (d *wireDriver) admit(pairs []pairSpec, ids []uint64) ([]uint64, int, error) {
	sc := d.pool.Get().(*wireScratch)
	defer d.pool.Put(sc)
	sc.reqs = sc.reqs[:0]
	for _, p := range pairs {
		sc.reqs = append(sc.reqs, wire.AdmitReq{Class: d.class, Src: uint32(p.src), Dst: uint32(p.dst)})
	}
	res, err := d.c.Admit(sc.reqs, sc.res[:0])
	sc.res = res
	if err != nil {
		return ids, 0, err
	}
	rejected := 0
	for _, r := range res {
		switch {
		case r.Status == wire.StatusOK:
			ids = append(ids, r.ID)
		case wire.StatusRejected(r.Status):
			rejected++
		default:
			return ids, rejected, fmt.Errorf("wire admit: %w", r.Err())
		}
	}
	return ids, rejected, nil
}

func (d *wireDriver) teardown(ids []uint64) error {
	sc := d.pool.Get().(*wireScratch)
	defer d.pool.Put(sc)
	statuses, err := d.c.Teardown(ids, sc.statuses[:0])
	sc.statuses = statuses
	if err != nil {
		return err
	}
	for i, st := range statuses {
		if st != wire.StatusOK {
			return fmt.Errorf("wire teardown of %d: %w", ids[i], wire.StatusErr(st))
		}
	}
	return nil
}

// multiDriver drives several cluster nodes at once (-targets): admits
// round-robin across one wire driver per node; teardowns go back to
// the node that admitted the flow, which cluster flow IDs carry in
// their node bits (admission.FlowID.Node; the edge that admitted a flow
// holds its lease slot, so only that edge can release it).
type multiDriver struct {
	addrs   []string
	drivers []*wireDriver
	next    atomic.Uint64
	admits  []atomic.Uint64 // per-target admitted-flow counts
	// owner maps a flow ID's node to the driver index that saw it
	// admitted; -1 until a node's first admit comes back.
	owner [256]atomic.Int32
}

func newMultiDriver(targets []string, class string, conns, pipeline int) (*multiDriver, []pairSpec, error) {
	m := &multiDriver{admits: make([]atomic.Uint64, len(targets))}
	for i := range m.owner {
		m.owner[i].Store(-1)
	}
	var pairs []pairSpec
	for _, target := range targets {
		d, p, err := newWireDriver(target, class, conns, pipeline)
		if err != nil {
			m.close()
			return nil, nil, fmt.Errorf("target %s: %w", target, err)
		}
		m.drivers = append(m.drivers, d)
		m.addrs = append(m.addrs, strings.TrimPrefix(strings.TrimPrefix(target, "http://"), "tcp://"))
		if pairs == nil {
			// Every cluster member runs the identical admission
			// configuration, so one node's route discovery covers all.
			pairs = p
		}
	}
	return m, pairs, nil
}

func (m *multiDriver) close() error {
	var err error
	for _, d := range m.drivers {
		if cerr := d.close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (m *multiDriver) admit(pairs []pairSpec, ids []uint64) ([]uint64, int, error) {
	i := int(m.next.Add(1) % uint64(len(m.drivers)))
	before := len(ids)
	ids, rejected, err := m.drivers[i].admit(pairs, ids)
	for _, id := range ids[before:] {
		m.owner[admission.FlowID(id).Node()].Store(int32(i))
	}
	m.admits[i].Add(uint64(len(ids) - before))
	return ids, rejected, err
}

func (m *multiDriver) teardown(ids []uint64) error {
	// Partition by admitting node. The closed loop usually hands back a
	// run of IDs from one node, so group with a small map.
	groups := make(map[int32][]uint64, len(m.drivers))
	for _, id := range ids {
		node := admission.FlowID(id).Node()
		idx := m.owner[node].Load()
		if idx < 0 {
			return fmt.Errorf("wire teardown of %d: flow from unknown node %d", id, node)
		}
		groups[idx] = append(groups[idx], id)
	}
	for idx, g := range groups {
		if err := m.drivers[idx].teardown(g); err != nil {
			return err
		}
	}
	return nil
}

// perNode reports each target's admitted-flow count for the run
// summary.
func (m *multiDriver) perNode() []struct {
	Addr     string
	Admitted uint64
} {
	out := make([]struct {
		Addr     string
		Admitted uint64
	}, len(m.drivers))
	for i := range m.drivers {
		out[i].Addr = m.addrs[i]
		out[i].Admitted = m.admits[i].Load()
	}
	return out
}
