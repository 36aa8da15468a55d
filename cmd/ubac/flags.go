package main

import (
	"flag"
	"fmt"

	"ubac/internal/delay"
	"ubac/internal/routing"
	"ubac/internal/topology"
	"ubac/internal/traffic"
)

// commonFlags holds the flags shared by most subcommands.
type commonFlags struct {
	topo     string
	burst    float64
	rate     float64
	deadline float64
	selector string
	perHop   float64
}

func addCommon(fs *flag.FlagSet) *commonFlags {
	c := &commonFlags{}
	fs.StringVar(&c.topo, "topology", "mci",
		"topology: mci | nsfnet | line:N | ring:N | star:N | grid:WxH | tree:F:D | random:N:E:SEED | waxman:N:SEED | ba:N:M:SEED | metro:SEED | backbone:SEED | continental:SEED | @file.json")
	fs.Float64Var(&c.burst, "burst", 640, "leaky bucket burst T in bits")
	fs.Float64Var(&c.rate, "rate", 32e3, "leaky bucket rate rho in bits/s")
	fs.Float64Var(&c.deadline, "deadline", 0.1, "end-to-end deadline D in seconds")
	fs.StringVar(&c.selector, "selector", "portfolio",
		"route selector: sp | heuristic | cheap | backtracking | portfolio")
	fs.Float64Var(&c.perHop, "perhop", 0,
		"constant per-hop delay in seconds charged against deadlines (propagation etc.)")
	return c
}

func (c *commonFlags) class() traffic.Class {
	return traffic.Class{
		Name:     "rt",
		Bucket:   traffic.LeakyBucket{Burst: c.burst, Rate: c.rate},
		Deadline: c.deadline,
		Priority: 0,
	}
}

func (c *commonFlags) network() (*topology.Network, error) {
	return parseTopology(c.topo)
}

// model builds a delay model over the network with the flag-configured
// per-hop constant.
func (c *commonFlags) model(net *topology.Network) *delay.Model {
	m := delay.NewModel(net)
	m.FixedPerHop = c.perHop
	return m
}

func (c *commonFlags) makeSelector() (routing.Selector, error) {
	switch c.selector {
	case "sp":
		return routing.SP{}, nil
	case "heuristic":
		return routing.Heuristic{}, nil
	case "cheap":
		return routing.Heuristic{Mode: routing.Cheap}, nil
	case "backtracking":
		return routing.Backtracking{}, nil
	case "portfolio":
		return routing.Portfolio{}, nil
	default:
		return nil, fmt.Errorf("unknown selector %q", c.selector)
	}
}

// parseTopology interprets the -topology flag value (shared syntax in
// internal/topology.Parse).
func parseTopology(spec string) (*topology.Network, error) {
	return topology.Parse(spec)
}
