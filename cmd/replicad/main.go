// Command replicad runs the replication subsystem from the shell: one
// process serves a primary framework's change feed over TCP, others
// follow it into read-only replica stores.
//
//	replicad serve  -state DIR [-listen ADDR] [-save-interval DUR] [-metrics ADDR]
//	replicad follow -connect ADDR [-interval DUR] [-once] [-metrics ADDR]
//
// serve loads (or initializes) a JCF framework from a state directory,
// a segment log as jcf.Save writes it, publishes its change feed on the
// listen address, and — because the state directory doubles as the
// seed backend — bootstraps far-behind followers by shipping the
// committed base + delta chain instead of cutting fresh snapshots. It
// keeps committing differential saves so that chain stays current. One
// writing process per state dir: while serve runs, nothing else may
// save to it. A state dir in the File backend's layout is refused with
// backend.ErrOldFormat before anything listens or is written.
//
// follow tails a publisher into an in-memory follower store, prints
// applied LSN / lag, and runs the incremental consistency check after
// each catch-up — the convergence self-check. With -once it exits after
// the first converged check (useful for scripted smoke tests).
//
// Both modes take -metrics ADDR to serve the live introspection surface
// (/metrics Prometheus text, /vars JSON, /debug/pprof) over the obs
// registry, and -slowops DUR to log checkin-pipeline spans slower than
// DUR with a per-stage breakdown. The follow status line is printed from
// the same registry snapshot the HTTP endpoints serve, so the CLI and a
// scraper can never disagree.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms/backend"
	"repro/internal/otod"
	"repro/internal/repl"

	"flag"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "follow":
		err = follow(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replicad:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  replicad serve  -state DIR [-listen ADDR] [-save-interval DUR] [-metrics ADDR] [-slowops DUR]
  replicad follow -connect ADDR [-interval DUR] [-once] [-metrics ADDR] [-slowops DUR]`)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	state := fs.String("state", "", "framework state directory (required)")
	listen := fs.String("listen", "127.0.0.1:7070", "replication listen address")
	saveEvery := fs.Duration("save-interval", 5*time.Second, "differential save cadence (0 disables)")
	metricsAddr := fs.String("metrics", "", "introspection HTTP address (empty disables)")
	slowOps := fs.Duration("slowops", 0, "log pipeline spans slower than this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("serve: -state is required")
	}
	b, err := backend.OpenSegment(*state)
	if err != nil {
		return err
	}
	fw, err := jcf.LoadFrom(b)
	if err != nil {
		if _, lerr := backend.LoadManifest(b); lerr == nil {
			return err // a committed state exists but will not load: surface it
		}
		fmt.Println("no committed state; initializing a fresh JCF 4.0 framework")
		if fw, err = jcf.New(jcf.Release40); err != nil {
			return err
		}
		if err := fw.SaveTo(b); err != nil {
			return err
		}
	}
	pub := repl.NewPublisher(fw.ReplicationSource(), repl.WithSeedBackend(b))
	defer pub.Close()
	applySlowOps(*slowOps)
	reg := obs.NewRegistry()
	fw.RegisterMetrics(reg)
	pub.RegisterMetrics(reg)
	if err := startMetrics(*metricsAddr, reg); err != nil {
		return err
	}
	ln, err := repl.ListenTCP(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("serving replication on %s (state %s, feed lsn %d)\n", ln.Addr(), *state, fw.FeedLSN())
	if *saveEvery > 0 {
		go func() {
			for range time.Tick(*saveEvery) {
				if err := fw.SaveTo(b); err != nil {
					fmt.Fprintln(os.Stderr, "replicad: save:", err)
				}
			}
		}()
	}
	return pub.Serve(ln)
}

func follow(args []string) error {
	fs := flag.NewFlagSet("follow", flag.ExitOnError)
	connect := fs.String("connect", "", "publisher address (required)")
	interval := fs.Duration("interval", 2*time.Second, "status print cadence")
	once := fs.Bool("once", false, "exit after the first converged consistency check")
	metricsAddr := fs.String("metrics", "", "introspection HTTP address (empty disables)")
	slowOps := fs.Duration("slowops", 0, "log pipeline spans slower than this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("follow: -connect is required")
	}
	schema, err := otod.JCFModel().Schema()
	if err != nil {
		return err
	}
	rep := repl.NewReplica(schema, &repl.TCPDialer{Addr: *connect})
	rep.Start()
	defer rep.Close()
	view, err := jcf.NewReplicaView(rep.Store(), jcf.Release40)
	if err != nil {
		return err
	}
	applySlowOps(*slowOps)
	reg := obs.NewRegistry()
	rep.RegisterMetrics(reg)
	rep.Store().RegisterMetrics(reg)
	if err := startMetrics(*metricsAddr, reg); err != nil {
		return err
	}
	fmt.Printf("following %s\n", *connect)
	// The status line is a registry snapshot dump — the same cells the
	// /metrics and /vars handlers read — so the CLI and a scraper always
	// report identical numbers.
	for range time.Tick(*interval) {
		snap := reg.Snapshot()
		applied := snapInt(snap, "repl_replica_applied_lsn")
		lag := snapInt(snap, "repl_replica_lag")
		status := "catching up"
		if lag == 0 && (snapInt(snap, "repl_replica_frames_applied_total") > 0 ||
			snapInt(snap, "repl_replica_bootstraps_total") > 0) {
			if probs := view.CheckConsistency(); len(probs) == 0 {
				status = "converged, consistent"
			} else {
				status = fmt.Sprintf("converged, %d inconsistencies", len(probs))
			}
		}
		fmt.Printf("applied=%d lag=%d bootstraps=%d reconnects=%d gaps=%d frames_in=%d bytes_in=%d  %s\n",
			applied, lag,
			snapInt(snap, "repl_replica_bootstraps_total"),
			snapInt(snap, "repl_replica_reconnects_total"),
			snapInt(snap, "repl_replica_gaps_total"),
			snapInt(snap, "repl_replica_frames_in_total"),
			snapInt(snap, "repl_replica_bytes_in_total"),
			status)
		if err := rep.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "replicad: last session error:", err)
		}
		if *once && status == "converged, consistent" {
			return nil
		}
	}
	return nil
}
