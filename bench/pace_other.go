//go:build !linux

package main

import "time"

// pacer without the Linux timer-slack control: plain sleeps. The
// benchmark's end-to-end runs need Linux anyway (/proc accounting).
type pacer struct{ origin time.Time }

func newPacer(origin time.Time) *pacer { return &pacer{origin: origin} }

func (p *pacer) release() {}

func (p *pacer) until(due int64) {
	if d := time.Duration(due - int64(time.Since(p.origin))); d > 0 {
		time.Sleep(d)
	}
}
