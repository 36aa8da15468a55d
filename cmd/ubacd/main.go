// Command ubacd is the admission-control daemon: it runs the paper's
// configuration step once at startup (safe route selection and
// verification at the requested utilization), refuses to serve a
// configuration that does not verify, and then serves run-time
// admission decisions over HTTP and, with -wire, the binary wire
// transport (internal/daemon lists the HTTP API).
//
//	ubacd -topology mci -alpha 0.40 -listen :8080
//
// Flags given on the command line override a -config file.
// SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"ubac/internal/daemon"
)

func main() {
	// Microseconds put a cluster member's boot lines and its election
	// (listening, promoted, following) on one timeline.
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	cfg, err := daemon.ParseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	// A signal that arrives while the daemon boots drains it once booted.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	d, err := daemon.Start(context.Background(), cfg, daemon.Deps{Log: log.Default()})
	if err != nil {
		log.Fatalf("ubacd: %v", err)
	}
	select {
	case err := <-d.Err():
		log.Fatalf("ubacd: %v", err)
	case sig := <-sigCh:
		grace := cfg.ShutdownGrace()
		fmt.Printf("ubacd: %v, draining (deadline %s)\n", sig, grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := d.Stop(ctx); err != nil {
			log.Fatalf("ubacd: %v", err)
		}
	}
}
