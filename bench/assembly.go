package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"ubac/internal/admission"
	"ubac/internal/telemetry"
	"ubac/internal/wal"
	"ubac/internal/wire"
)

// assembly is the daemon's serving stack put together inside the bench
// process the way cmd/ubacd does it — deployment → controller with the
// registry sink and a 4096-event audit ring → optional async WAL →
// wire server on loopback — so the traced run can stand decorators on
// the seams between the layers. It has no HTTP side and no cluster.
type assembly struct {
	ctrl *admission.Controller
	sink *telemetry.RegistrySink
	log  *wal.Log
	srv  *wire.Server
	addr string
	done chan error
}

// newAssembly builds and starts the stack. walDir "" leaves the WAL
// out; tr nil leaves the decorators out.
func newAssembly(dep *deployment, walDir string, tr *tracer) (*assembly, error) {
	ctrl, err := dep.controller()
	if err != nil {
		return nil, err
	}
	a := &assembly{ctrl: ctrl, done: make(chan error, 1)}
	a.sink = telemetry.NewRegistrySink(telemetry.NewRegistry(), telemetry.NewRing(4096))
	if tr != nil {
		ctrl.SetSink(tracedSink{Sink: a.sink, tr: tr})
	} else {
		ctrl.SetSink(a.sink)
	}
	if walDir != "" {
		fp := ctrl.Fingerprint()
		rec, err := wal.Recover(walDir, fp, ctrl)
		if err != nil {
			return nil, fmt.Errorf("assembly: recover: %w", err)
		}
		if err := ctrl.FinishRecovery(); err != nil {
			return nil, fmt.Errorf("assembly: recover: %w", err)
		}
		opts := wal.Options{Dir: walDir, Mode: wal.ModeAsync, Fingerprint: fp, Epoch: rec.Epoch + 1, Observer: a.sink}
		if tr != nil {
			opts.Observer = tracedWALObs{Observer: a.sink, tr: tr}
		}
		if a.log, err = wal.Open(opts); err != nil {
			return nil, fmt.Errorf("assembly: open wal: %w", err)
		}
		if tr != nil {
			ctrl.SetJournal(tracedJournal{inner: a.log, tr: tr})
		} else {
			ctrl.SetJournal(a.log)
		}
	}
	backend := wire.Backend(ctrl)
	opts := wire.Options{Observer: a.sink}
	if tr != nil {
		backend = tracedBackend{inner: ctrl, tr: tr}
		opts.Observer = tracedWireObs{Observer: a.sink, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.close()
		return nil, err
	}
	a.addr = ln.Addr().String()
	srv := wire.NewServer(backend, opts)
	a.srv = srv
	go func() { a.done <- srv.Serve(ln) }()
	return a, nil
}

// close drains the wire server and closes the WAL; calling it again is
// harmless.
func (a *assembly) close() {
	if a.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		a.srv.Shutdown(ctx)
		cancel()
		<-a.done
		a.srv = nil
	}
	if a.log != nil {
		a.log.Close() // idempotent
	}
}
