// Command srcsim runs the integrated DCQCN-only versus DCQCN-SRC
// experiments of the paper's evaluation. Experiments come from the
// registry in internal/harness; `srcsim -list` enumerates them with
// their tunable parameters and defaults.
//
// Usage:
//
//	srcsim -list                    (enumerate registered experiments)
//	srcsim -list-cc                 (enumerate congestion-control schemes)
//	srcsim -experiment fig7 [-requests 2000] [-seed 7] [-train 1500] [-cc hpcc]
//	srcsim -experiment cc-matrix    (CC scheme x SRC on/off retention matrix)
//	srcsim -experiment table4 [-seconds 0.08]
//	srcsim -experiment fig10 [-seconds 0.06]
//	srcsim -experiment fig2
//	srcsim -list-scenarios          (enumerate the composed scenario library)
//	srcsim -scenario vdi-boot-storm (run a library scenario under both modes)
//	srcsim -replay my.csv           (replay a tracegen CSV under both modes;
//	                                 shorthand for -experiment replay)
//	srcsim -replay t.jsonl -format jsonl   (replay an open-format JSONL trace)
//	srcsim -experiment table1       (Table I; also table3, tpm-importance)
//	srcsim -json ...                (print the experiment's data as JSON)
//
// Experiments that need a trained throughput-prediction model train one
// lazily (or load -tpm); training results are reused across runs through
// the content-addressed artifact cache (SRCSIM_TPM_CACHE=off disables,
// SRCSIM_TPM_CACHE=<dir> relocates; default is <tmp>/srcsim-cache).
// -save-tpm tpm.bin writes the model the selected experiment uses and
// exits; a later -tpm tpm.bin run loads it instead of training.
//
// Observability (any experiment or replay):
//
//	-metrics out.json         write a metrics-registry snapshot
//	-trace out.trace.json     write a Chrome trace (chrome://tracing, Perfetto)
//	-record out.csv           flight recorder: sample every counter/gauge and
//	                          the per-flow/per-target congestion signals on
//	                          the sim clock; .csv long format, .jsonl columnar,
//	                          any other extension Chrome-trace counter events
//	-record-interval 100us    flight-recorder sample period (sim time)
//	-record-cap 16384         ring capacity per recorded series
//	-serve :8080              live inspector: /metrics (Prometheus text),
//	                          /series (recorder JSON), /progress
//	-serve-grace 5s           keep the inspector up after the run (wall time)
//	-progress 100ms           periodic status line on stderr (sim-time interval)
//
// Fault injection & adaptation (any experiment or replay):
//
//	-faults chaos.json        replay a deterministic fault schedule
//	                          (see internal/faults and EXPERIMENTS.md)
//	-adapt                    arm adaptive SRC (in-run retraining +
//	                          degradation ladder; see DESIGN.md); the
//	                          adapt-aging/adapt-phase/adapt-failover
//	                          experiments arm their own tuning
//
// Run governance (any experiment or replay; see internal/guard):
//
//	-audit=false              disable the conservation auditor
//	-stall-horizon 200ms      arm the liveness watchdog (sim-time horizon)
//	-max-wall 10m             truncate gracefully after this much wall time
//
// SIGINT/SIGTERM also truncate gracefully: the current run drains at the
// next event boundary and partial results (marked "truncated") plus all
// -metrics/-trace artifacts are still written. All file artifacts are
// written atomically (temp file + rename), so an interrupted run never
// leaves a half-written file.
//
// Exit codes:
//
//	0  success
//	1  configuration, I/O, or internal error
//	2  guard failure: liveness stall (diagnostic dump on stderr) or
//	   conservation-invariant violation
//	3  run truncated (SIGINT, SIGTERM, or -max-wall); partial results
//	   and artifacts were written
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"srcsim/internal/atomicio"
	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
	"srcsim/internal/harness"
	"srcsim/internal/netsim"
	"srcsim/internal/obs"
	"srcsim/internal/obs/live"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/scenario"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

// Exit codes; keep in sync with the package comment and README.
const (
	exitOK        = 0
	exitError     = 1
	exitGuard     = 2
	exitTruncated = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fail classifies err into an exit code, logging it (and, for a
// liveness stall, the diagnostic dump) to stderr.
func fail(lg *log.Logger, err error) int {
	lg.Print(err)
	var se *guard.StallError
	if errors.As(err, &se) {
		if se.Dump != nil {
			fmt.Fprintln(lg.Writer(), "guard dump:")
			se.Dump.WriteTo(lg.Writer())
		}
		return exitGuard
	}
	var ve *guard.ViolationError
	if errors.As(err, &ve) {
		return exitGuard
	}
	return exitError
}

// run is the whole command: it parses args, writes results to stdout
// and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "srcsim: ", 0)
	fs := flag.NewFlagSet("srcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "fig7", "registered experiment to run (see -list)")
	list := fs.Bool("list", false, "list registered experiments with their parameters and exit")
	listCC := fs.Bool("list-cc", false, "list registered congestion-control schemes and exit")
	listScenarios := fs.Bool("list-scenarios", false, "list the built-in composed scenario library and exit")
	scenarioName := fs.String("scenario", "", "run a library scenario by name, or a scenario spec by .json path (shorthand for -experiment scenario; see -list-scenarios)")
	replayFile := fs.String("replay", "", "replay a trace file on the Sec. IV-D testbed under both modes (shorthand for -experiment replay)")
	// requests/seconds/seed/cc/format reach experiments through the
	// override overlay below (fs.Visit), not through direct reads.
	fs.Int("requests", 2000, "write-request count for fig7/chaos-soak (reads get 2x)")
	fs.Float64("seconds", 0.06, "trace length in seconds for fig10/table4")
	seed := fs.Uint64("seed", 7, "workload seed")
	fs.String("cc", "dcqcn", "congestion control: "+strings.Join(netsim.CCNames(), " | ")+" (see -list-cc)")
	fs.String("format", "csv", "trace file format for -replay: "+strings.Join(trace.Formats, " | "))
	trainCount := fs.Int("train", 1500, "per-direction request count for TPM training runs")
	tpmPath := fs.String("tpm", "", "load a pre-trained TPM (from -save-tpm) instead of training")
	saveTPM := fs.String("save-tpm", "", "write the TPM the selected experiment uses (trained, or loaded with -tpm) to this file and exit without running it")
	jsonOut := fs.Bool("json", false, "print the experiment's machine-readable data as indented JSON instead of its text")
	faultsFile := fs.String("faults", "", "load a fault-injection schedule (JSON, see internal/faults) and replay it into every cluster run")
	adapt := fs.Bool("adapt", false, "arm adaptive SRC (in-run TPM retraining + degradation ladder, default tuning) on every cluster run; the adapt-* experiments tune it themselves")
	metricsOut := fs.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	recordOut := fs.String("record", "", "write the flight-recorder congestion timeline to this file (.csv long format, .jsonl columnar, anything else Chrome-trace counter JSON)")
	recordInterval := fs.Duration("record-interval", 100*time.Microsecond, "flight-recorder sample period in sim time")
	recordCap := fs.Int("record-cap", timeseries.DefaultCapacity, "flight-recorder ring capacity (max samples kept per series)")
	serveAddr := fs.String("serve", "", "serve the live inspector (/metrics Prometheus text, /series JSON, /progress) on this address during the run, e.g. :8080")
	serveGrace := fs.Duration("serve-grace", 0, "keep the live inspector up this long (wall time) after the run finishes before exiting")
	progressEvery := fs.Duration("progress", 0, "print a progress line to stderr every interval of sim time (e.g. 100ms; 0 disables)")
	audit := fs.Bool("audit", true, "run the conservation auditor on every cluster run (read-only; a violation fails the run)")
	stallHorizon := fs.Duration("stall-horizon", 0, "arm the liveness watchdog: fail with a diagnostic dump if the oldest in-flight command exceeds this sim-time age with no progress (0 disables)")
	maxWall := fs.Duration("max-wall", 0, "truncate the run gracefully after this much wall-clock time (0 = unlimited); partial results are still written")
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
	if *listCC {
		netsim.FprintCCSchemes(stdout)
		return exitOK
	}
	if *listScenarios {
		for _, sc := range scenario.Library() {
			fmt.Fprintf(stdout, "%-22s %s\n", sc.Name, sc.Title)
		}
		return exitOK
	}

	// -scenario and -replay are shorthands: they select an experiment
	// and set its file/name parameter. Explicitly set flags then overlay
	// the experiment's declared defaults; flags the experiment does not
	// declare are ignored, so e.g. -cc only affects experiments with a
	// cc parameter.
	overrides := map[string]string{}
	if *scenarioName != "" {
		*experiment = "scenario"
		// A path selects a custom spec file; a bare word a library entry.
		if strings.ContainsRune(*scenarioName, '/') || strings.HasSuffix(*scenarioName, ".json") {
			overrides["file"] = *scenarioName
		} else {
			overrides["name"] = *scenarioName
		}
	}
	if *replayFile != "" {
		*experiment = "replay"
		overrides["file"] = *replayFile
	}
	// Fail on a bad -experiment or parameter now, before minutes of TPM
	// training.
	exp, ok := harness.LookupExperiment(*experiment)
	if !ok {
		lg.Printf("unknown experiment %q (registered: %s; run srcsim -list)",
			*experiment, strings.Join(harness.ExperimentNames(), ", "))
		return exitError
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "requests", "seconds", "seed", "cc", "format":
			if _, ok := exp.Param(f.Name); ok {
				overrides[f.Name] = f.Value.String()
			}
		}
	})
	params, err := exp.Resolve(overrides)
	if err != nil {
		lg.Print(err)
		return exitError
	}

	// getTPM resolves the model an experiment declares, lazily: -tpm
	// loads a pre-trained file; otherwise training runs behind the
	// content-addressed artifact cache, so repeated invocations with the
	// same training inputs reuse the stored model.
	getTPM := func(kind harness.TPMKind) (*core.TPM, error) {
		if *tpmPath != "" {
			f, err := os.Open(*tpmPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			tpm, err := core.LoadTPM(f)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "loaded TPM from %s\n", *tpmPath)
			return tpm, nil
		}
		fmt.Fprintf(stderr, "training %v TPM...\n", kind)
		start := time.Now()
		tpm, hit, err := kind.Train(devrun.TPMCacheFromEnv(), *trainCount, *seed^0xbeef)
		if err != nil {
			return nil, err
		}
		if hit {
			fmt.Fprintf(stderr, "reused cached TPM (%s=off forces retraining)\n", devrun.TPMCacheEnv)
		} else {
			fmt.Fprintf(stderr, "trained in %v\n", time.Since(start))
		}
		return tpm, nil
	}

	if *saveTPM != "" {
		if exp.TPM == harness.TPMNone {
			lg.Printf("-save-tpm: experiment %s uses no shared TPM", exp.Name)
			return exitError
		}
		tpm, err := getTPM(exp.TPM)
		if err != nil {
			return fail(lg, err)
		}
		if err := atomicio.WriteFile(*saveTPM, tpm.Save); err != nil {
			return fail(lg, err)
		}
		fmt.Fprintf(stderr, "saved %v TPM to %s\n", exp.TPM, *saveTPM)
		return exitOK
	}

	// Graceful cancellation: SIGINT/SIGTERM and -max-wall share one
	// Stopper; the cluster drains at the next event boundary and the
	// partial result is marked truncated. A second signal falls through
	// to the default handler and kills the process.
	stopper := guard.NewStopper()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer signal.Stop(sigc)
		select {
		case s := <-sigc:
			fmt.Fprintf(stderr, "srcsim: %v: truncating run (again to kill)\n", s)
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

	var faultSched *faults.Schedule
	if *faultsFile != "" {
		faultSched, err = faults.LoadFile(*faultsFile)
		if err != nil {
			return fail(lg, err)
		}
		fmt.Fprintf(stderr, "loaded %d fault events from %s\n", len(faultSched.Events), *faultsFile)
	}

	// Shared observability sinks, attached to every cluster run via the
	// harness spec mods; nil values keep all hooks no-ops.
	var reg *obs.Registry
	if *metricsOut != "" || *serveAddr != "" {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	var recorder *timeseries.Recorder
	if *recordOut != "" || *serveAddr != "" {
		recorder = timeseries.New(sim.Time(*recordInterval), *recordCap)
	}
	var board *live.Board
	if *serveAddr != "" {
		board = live.NewBoard()
		srv, err := live.Serve(*serveAddr, board)
		if err != nil {
			return fail(lg, err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "live inspector on http://%s (/metrics, /series, /progress)\n", srv.Addr())
		if *serveGrace > 0 {
			// Hold the inspector up after the run so scrapers racing a
			// short run still see the final state.
			defer time.Sleep(*serveGrace)
		}
	}
	withObs := func(s *cluster.Spec) {
		s.Metrics = reg
		s.Trace = tracer
		s.Recorder = recorder
		s.Board = board
		if faultSched != nil {
			// -faults replaces any schedule the experiment installed;
			// without the flag, scenarios that arm their own chaos
			// (adapt-*) keep it.
			s.Faults = faultSched
		}
		if *adapt && !s.SRC.Adaptive.Enabled {
			// Default tuning (core.AdaptiveConfig defaults); scenarios
			// that armed their own adaptive config keep it.
			s.SRC.Adaptive.Enabled = true
		}
		if *progressEvery > 0 {
			s.Progress = stderr
			s.ProgressEvery = sim.Time(*progressEvery)
		}
		s.Guard.Audit = *audit
		s.Guard.StallHorizon = sim.Time(*stallHorizon)
		s.Guard.Stop = stopper
	}
	writeObs := func() error {
		if reg != nil && *metricsOut != "" {
			if err := atomicio.WriteFile(*metricsOut, reg.WriteJSON); err != nil {
				return err
			}
			snap := reg.Snapshot()
			fmt.Fprintf(stderr, "wrote %d metric series to %s\n", snap.NumSeries(), *metricsOut)
		}
		if tracer != nil {
			if recorder != nil {
				// Fold the congestion timeline into the same trace so the
				// counter tracks render alongside the event spans.
				recorder.EmitChromeCounters(tracer.Scope("recorder"))
			}
			if err := atomicio.WriteFile(*traceOut, tracer.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %d trace events (%d dropped) to %s\n",
				tracer.Len(), tracer.Dropped(), *traceOut)
		}
		if recorder != nil && *recordOut != "" {
			write := recorder.WriteChromeTrace
			switch {
			case strings.HasSuffix(*recordOut, ".csv"):
				write = recorder.WriteCSV
			case strings.HasSuffix(*recordOut, ".jsonl"):
				write = recorder.WriteJSONL
			}
			if err := atomicio.WriteFile(*recordOut, write); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote flight-recorder timeline (%d series) to %s\n",
				len(recorder.Dump(1)), *recordOut)
		}
		return nil
	}

	env := &harness.Env{TPM: getTPM, Mods: []func(*cluster.Spec){withObs}}
	out, err := exp.Run(env, params)
	if err != nil {
		return fail(lg, err)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out.Data); err != nil {
			return fail(lg, err)
		}
	} else {
		io.WriteString(stdout, out.Text)
	}
	if err := writeObs(); err != nil {
		return fail(lg, err)
	}
	if stopper.Stopped() {
		lg.Printf("run truncated: %s", stopper.Reason())
		return exitTruncated
	}
	return exitOK
}
