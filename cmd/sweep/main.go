// Command sweep runs experiment campaigns: a JSON spec names registered
// experiments with parameter grids, and the orchestrator expands it into
// jobs, runs them on a worker pool (parallel across jobs; every
// simulation stays single-threaded and deterministic), and writes
// per-job artifacts plus a byte-stable aggregate report.
//
// Usage:
//
//	sweep -campaign paper.json -out out/        run a campaign
//	sweep -campaign paper.json -out out/ -resume   continue after a crash/kill
//	sweep -list                                 enumerate registered experiments
//
// A campaign spec looks like:
//
//	{
//	  "name": "paper",
//	  "seed": 7,
//	  "experiments": [
//	    {"experiment": "fig2"},
//	    {"experiment": "fig7", "grid": {"cc": ["dcqcn", "timely"]}},
//	    {"experiment": "fig10", "params": {"seconds": "0.06"}}
//	  ]
//	}
//
// Outputs under -out:
//
//	manifest.json   crash-safe checkpoint, rewritten after every job
//	jobs/<id>.json  one artifact per finished job
//	report.txt      every rendered figure/table, in job order
//	aggregate.json  machine-readable campaign record
//	metrics.json    merged cross-job metrics snapshot (when present)
//	progress.jsonl  job-transition log (one JSON line per start/done/
//	                failed/resumed event, appended atomically); carries
//	                wall times and an ETA, so it is run-local and
//	                excluded from byte-determinism comparisons
//
// -serve :8080 additionally exposes the campaign live over HTTP:
// /progress (same data as the latest progress.jsonl line) and /metrics
// (the merged snapshot so far, Prometheus text exposition).
//
// Finished jobs and trained TPMs are reused through the
// content-addressed cache (-cache, default <out>/cache); re-running an
// unchanged campaign is all cache hits and reproduces the aggregate
// byte-for-byte. SIGINT/SIGTERM or -max-wall stop gracefully: running
// simulations drain, finished work is kept, and -resume completes the
// rest with a byte-identical final report.
//
// Exit codes:
//
//	0  campaign completed, all jobs done
//	1  configuration or I/O error, or at least one job failed
//	3  campaign truncated (signal or wall budget); resume to finish
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"srcsim/internal/guard"
	"srcsim/internal/harness"
	"srcsim/internal/obs/live"
	"srcsim/internal/sweep"
	"srcsim/internal/sweep/cache"
)

const (
	exitOK        = 0
	exitError     = 1
	exitTruncated = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the experiment list
// to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "sweep: ", 0)
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	campaignPath := fs.String("campaign", "", "campaign spec file (JSON)")
	out := fs.String("out", "", "output directory (required)")
	cacheDir := fs.String("cache", "", "content-addressed artifact cache directory (default <out>/cache; \"off\" disables)")
	workers := fs.Int("workers", 0, "max parallel jobs (0 = campaign spec, then GOMAXPROCS)")
	resume := fs.Bool("resume", false, "continue a previous run in -out: skip jobs whose artifacts are already on disk")
	list := fs.Bool("list", false, "list registered experiments with their parameters and exit")
	maxWall := fs.Duration("max-wall", 0, "stop the campaign gracefully after this much wall-clock time (0 = unlimited)")
	serveAddr := fs.String("serve", "", "serve the live inspector (/metrics merged Prometheus text, /progress JSON with ETA) on this address during the campaign, e.g. :8080")
	serveGrace := fs.Duration("serve-grace", 0, "keep the live inspector up this long (wall time) after the campaign finishes before exiting")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitError
	}

	if *list {
		harness.FprintExperiments(stdout)
		return exitOK
	}
	if *campaignPath == "" || *out == "" {
		lg.Print("need -campaign and -out (or -list)")
		return exitError
	}

	spec, err := sweep.LoadCampaign(*campaignPath)
	if err != nil {
		lg.Print(err)
		return exitError
	}

	// Graceful cancellation: SIGINT/SIGTERM and -max-wall share one
	// Stopper. Running jobs drain at the next event boundary and stay
	// pending in the manifest; a second signal kills the process.
	stopper := guard.NewStopper()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer signal.Stop(sigc)
		select {
		case s := <-sigc:
			fmt.Fprintf(stderr, "sweep: %v: stopping campaign (again to kill)\n", s)
			stopper.Stop(fmt.Sprintf("signal: %v", s))
		case <-done:
		}
	}()
	if *maxWall > 0 {
		timer := time.AfterFunc(*maxWall, func() {
			stopper.Stop(fmt.Sprintf("wall budget %v exceeded", *maxWall))
		})
		defer timer.Stop()
	}

	dir := *cacheDir
	switch dir {
	case "":
		dir = filepath.Join(*out, "cache")
	case "off", "0":
		dir = ""
	}
	var board *live.Board
	if *serveAddr != "" {
		board = live.NewBoard()
		srv, err := live.Serve(*serveAddr, board)
		if err != nil {
			lg.Print(err)
			return exitError
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "sweep: live inspector on http://%s (/metrics, /progress)\n", srv.Addr())
		if *serveGrace > 0 {
			// Hold the inspector up after the campaign so scrapers racing
			// a short run still see the final state.
			defer time.Sleep(*serveGrace)
		}
	}
	runner := &sweep.Runner{
		Out:     *out,
		Cache:   cache.New(dir),
		Workers: *workers,
		Stop:    stopper,
		Resume:  *resume,
		Log:     stderr,
		Board:   board,
	}
	rep, err := runner.Run(spec)
	if err != nil {
		lg.Print(err)
		return exitError
	}

	fmt.Fprintf(stderr, "sweep: %s: %d/%d done (failed %d, resumed %d) | cache hits: %d/%d\n",
		rep.Campaign, rep.Done+rep.Resumed, rep.Total, rep.Failed, rep.Resumed, rep.CacheHits, rep.Executed)
	fmt.Fprintf(stderr, "sweep: outputs in %s (report.txt, aggregate.json, manifest.json)\n", rep.OutDir)

	if rep.Truncated {
		lg.Printf("campaign truncated: %s (use -resume to finish)", stopper.Reason())
		return exitTruncated
	}
	if rep.Failed > 0 {
		lg.Printf("%d job(s) failed; see manifest.json", rep.Failed)
		return exitError
	}
	return exitOK
}
