package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/harness"
	"srcsim/internal/trace"
)

// testDir holds the files the CLI tests share: the saved model and the
// replayed trace.
var testDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "srcsim-cli")
	if err != nil {
		panic(err)
	}
	testDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the command in-process and captures its output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// trainArgs pins the congestion model the TPM-backed tests use (trained
// once behind the artifact cache, then reused).
var trainArgs = []string{"-train", "1000", "-seed", "7"}

var (
	modelOnce sync.Once
	modelPath string
	modelErr  string
)

// savedTPM writes the congestion model once per test binary through
// -save-tpm and returns its path.
func savedTPM(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("trains (or loads) the congestion TPM; skipped with -short")
	}
	modelOnce.Do(func() {
		path := filepath.Join(testDir, "tpm.bin")
		code, _, stderr := runCLI(append([]string{"-save-tpm", path}, trainArgs...)...)
		if code != exitOK {
			modelErr = stderr
			return
		}
		modelPath = path
	})
	if modelPath == "" {
		t.Fatalf("-save-tpm failed:\n%s", modelErr)
	}
	return modelPath
}

// writeFile writes content under testDir and returns the path.
func writeFile(t *testing.T, name string, write func(*os.File) error) string {
	t.Helper()
	path := filepath.Join(testDir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes drives the documented exit codes through the flag
// surface.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  func(t *testing.T) []string
		code  int
		check func(t *testing.T, stdout, stderr string)
	}{
		{"list", func(*testing.T) []string { return []string{"-list"} }, exitOK,
			func(t *testing.T, stdout, _ string) {
				for _, name := range []string{"table1", "table3", "tpm-importance", "replay"} {
					if !strings.Contains(stdout, "  "+name+" ") {
						t.Errorf("-list misses %s:\n%s", name, stdout)
					}
				}
			}},
		{"fig2", func(*testing.T) []string { return []string{"-experiment", "fig2"} }, exitOK,
			func(t *testing.T, stdout, _ string) {
				if !strings.Contains(stdout, "no congestion") {
					t.Errorf("fig2 text:\n%s", stdout)
				}
			}},
		{"fig2 json", func(*testing.T) []string { return []string{"-experiment", "fig2", "-json"} }, exitOK,
			func(t *testing.T, stdout, _ string) {
				var rows []harness.Fig2Row
				if err := json.Unmarshal([]byte(stdout), &rows); err != nil || len(rows) != 3 {
					t.Errorf("-json data: %v %v\n%s", len(rows), err, stdout)
				}
			}},
		{"bad flag", func(*testing.T) []string { return []string{"-no-such-flag"} }, exitError, nil},
		{"unknown experiment", func(*testing.T) []string { return []string{"-experiment", "fig404"} }, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, `unknown experiment "fig404"`) {
					t.Errorf("stderr: %s", stderr)
				}
			}},
		{"bad format", func(*testing.T) []string {
			return []string{"-replay", filepath.Join(testDir, "missing.csv"), "-format", "xml"}
		}, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, `unknown format "xml"`) || !strings.Contains(stderr, "csv, msr, jsonl") {
					t.Errorf("stderr: %s", stderr)
				}
			}},
		{"save-tpm without a model", func(*testing.T) []string {
			return []string{"-experiment", "fig2", "-save-tpm", filepath.Join(testDir, "none.bin")}
		}, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "uses no shared TPM") {
					t.Errorf("stderr: %s", stderr)
				}
				if _, err := os.Stat(filepath.Join(testDir, "none.bin")); err == nil {
					t.Error("-save-tpm wrote a file for a TPM-free experiment")
				}
			}},
		{"stall", func(t *testing.T) []string {
			// Both targets stop fetching with no retry policy armed, so
			// the in-flight commands age past the watchdog horizon.
			sched := writeFile(t, "hang.json", func(f *os.File) error {
				return json.NewEncoder(f).Encode(harness.HangSchedule())
			})
			return []string{"-experiment", "fig7", "-tpm", savedTPM(t), "-requests", "100",
				"-faults", sched, "-stall-horizon", harness.HangStallHorizon.String()}
		}, exitGuard,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "guard dump:") {
					t.Errorf("stderr lacks the stall dump:\n%s", stderr)
				}
			}},
		{"max-wall", func(t *testing.T) []string {
			return []string{"-experiment", "fig7", "-tpm", savedTPM(t), "-requests", "100", "-max-wall", "1ns"}
		}, exitTruncated,
			func(t *testing.T, stdout, stderr string) {
				if !strings.Contains(stderr, "run truncated: wall budget 1ns exceeded") {
					t.Errorf("stderr: %s", stderr)
				}
				if !strings.HasPrefix(stdout, "Fig. 7") {
					t.Errorf("partial results not printed:\n%s", stdout)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args(t)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, stderr)
			}
			if tc.check != nil {
				tc.check(t, stdout, stderr)
			}
		})
	}
}

// TestReplayShorthand: -replay F is the registered replay experiment
// with file=F, byte for byte.
func TestReplayShorthand(t *testing.T) {
	model := savedTPM(t)
	tr, err := harness.VDITrace(3, 150)
	if err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, "replay.jsonl", func(f *os.File) error { return trace.WriteJSONL(f, tr) })

	code, stdout, stderr := runCLI("-replay", path, "-format", "jsonl", "-tpm", model)
	if code != exitOK {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}

	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tpm, err := core.LoadTPM(f)
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := harness.LookupExperiment("replay")
	p, err := exp.Resolve(map[string]string{"file": path, "format": "jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	env := &harness.Env{TPM: func(harness.TPMKind) (*core.TPM, error) { return tpm, nil }}
	out, err := exp.Run(env, p)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != out.Text {
		t.Fatalf("-replay stdout differs from the registry run:\n%s\nwant:\n%s", stdout, out.Text)
	}
}

// TestSaveTPMRoundTrip: a model written by -save-tpm and loaded with
// -tpm reproduces the run that trains (or loads from the cache) the
// same model.
func TestSaveTPMRoundTrip(t *testing.T) {
	model := savedTPM(t)
	args := []string{"-experiment", "fig7", "-requests", "150"}
	code, trained, stderr := runCLI(append(args, trainArgs...)...)
	if code != exitOK {
		t.Fatalf("trained run: exit %d:\n%s", code, stderr)
	}
	code, loaded, stderr := runCLI(append(args, "-seed", "7", "-tpm", model)...)
	if code != exitOK {
		t.Fatalf("loaded run: exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "loaded TPM from") {
		t.Fatalf("-tpm did not load the model:\n%s", stderr)
	}
	if trained != loaded {
		t.Fatalf("fig7 text differs:\ntrained:\n%s\nloaded:\n%s", trained, loaded)
	}
}
