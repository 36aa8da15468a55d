package main

import (
	"fmt"

	"ubac/internal/admission"
	"ubac/internal/core"
	"ubac/internal/routing"
	"ubac/internal/telemetry"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// The daemon under test is always `ubacd -topology mci -alpha 0.40`.
const (
	benchTopology = "mci"
	benchAlpha    = 0.40
	benchClass    = "voice"
)

// deployment is the bench's own copy of the daemon's configuration
// step: the same topology, classes, selector and alpha, so route
// indexes, server paths and per-server limits match the daemon's (the
// configuration step is deterministic; connect() checks the route
// table against the live daemon anyway). The shadow ledger, the oracle
// and the traced in-process assembly are all built from it.
type deployment struct {
	net *topology.Network
	sys *core.System
	dep *core.Deployment

	classIndex uint32  // wire index of benchClass
	paths      [][]int // route index → server hops
	pairs      [][2]int
	caps       []int64 // per-server capacity in benchClass flows
}

// configure runs the configuration step the way cmd/ubacd does. sink
// receives the configuration-time telemetry (nil = none).
func configure(sink telemetry.Sink) (*deployment, error) {
	net, err := topology.Parse(benchTopology)
	if err != nil {
		return nil, err
	}
	classes, err := traffic.NewClassSet(traffic.Voice(), traffic.BestEffort(1))
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(net, classes)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		sys.Model().Sink = sink
	}
	sys.Config().Selector = routing.Portfolio{}
	dep, err := sys.Configure(map[string]float64{benchClass: benchAlpha})
	if err != nil {
		return nil, fmt.Errorf("configure: %w", err)
	}
	if !dep.Safe() {
		return nil, fmt.Errorf("configure: %s at alpha=%.2f does not verify", benchTopology, benchAlpha)
	}
	d := &deployment{net: net, sys: sys, dep: dep}
	ctrl, err := d.controller()
	if err != nil {
		return nil, err
	}
	ci := -1
	for i, name := range ctrl.Classes() {
		if name == benchClass {
			ci = i
		}
	}
	if ci < 0 {
		return nil, fmt.Errorf("configure: class %q not deployed", benchClass)
	}
	d.classIndex = uint32(ci)
	set, err := ctrl.ClassRoutes(benchClass)
	if err != nil {
		return nil, err
	}
	for r := 0; r < set.Len(); r++ {
		rt := set.Route(r)
		d.pairs = append(d.pairs, [2]int{rt.Src, rt.Dst})
		d.paths = append(d.paths, ctrl.RouteServers(ci, int32(r)))
	}
	rate := int64(traffic.Voice().Bucket.Rate * 1e6) // the ledger's microbit unit
	d.caps = make([]int64, ctrl.ServerCount())
	for s := range d.caps {
		d.caps[s] = ctrl.LimitMicro(ci, s) / rate
	}
	return d, nil
}

// controller deploys a fresh controller, as the daemon does.
func (d *deployment) controller() (*admission.Controller, error) {
	return d.dep.Controller(admission.AtomicLedger)
}
