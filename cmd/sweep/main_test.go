package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes drives the documented exit codes through the flag
// surface. The cases run in order: the resume case continues the
// campaign the fig2 case finished.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	campaign := func(name, body string) string {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fig2 := campaign("fig2", `{"name": "one", "experiments": [{"experiment": "fig2"}]}`)
	unknown := campaign("unknown", `{"name": "bad", "experiments": [{"experiment": "fig404"}]}`)
	badParam := campaign("bad-param", `{"name": "bad", "experiments": [{"experiment": "fig2", "params": {"cut_factor": "abc"}}]}`)
	out := filepath.Join(dir, "out")

	cases := []struct {
		name  string
		args  []string
		code  int
		check func(t *testing.T, stdout, stderr string)
	}{
		{"list", []string{"-list"}, exitOK,
			func(t *testing.T, stdout, _ string) {
				if !strings.Contains(stdout, "  fig2 ") {
					t.Errorf("-list misses fig2:\n%s", stdout)
				}
			}},
		{"campaign", []string{"-campaign", fig2, "-out", out, "-cache", "off"}, exitOK,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "one: 1/1 done (failed 0, resumed 0)") {
					t.Errorf("stderr: %s", stderr)
				}
				report, err := os.ReadFile(filepath.Join(out, "report.txt"))
				if err != nil || !strings.Contains(string(report), "no congestion") {
					t.Errorf("report.txt: %v\n%s", err, report)
				}
			}},
		{"resume", []string{"-campaign", fig2, "-out", out, "-cache", "off", "-resume"}, exitOK,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "one: 1/1 done (failed 0, resumed 1)") {
					t.Errorf("stderr: %s", stderr)
				}
			}},
		{"bad flag", []string{"-no-such-flag"}, exitError, nil},
		{"missing campaign", []string{"-out", out}, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "need -campaign and -out") {
					t.Errorf("stderr: %s", stderr)
				}
			}},
		{"unknown experiment", []string{"-campaign", unknown, "-out", filepath.Join(dir, "unknown")}, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, `unknown experiment "fig404"`) {
					t.Errorf("stderr: %s", stderr)
				}
			}},
		{"job fails", []string{"-campaign", badParam, "-out", filepath.Join(dir, "bad"), "-cache", "off"}, exitError,
			func(t *testing.T, _, stderr string) {
				if !strings.Contains(stderr, "1 job(s) failed") || !strings.Contains(stderr, "cut_factor") {
					t.Errorf("stderr: %s", stderr)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o, e bytes.Buffer
			code := run(tc.args, &o, &e)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, e.String())
			}
			if tc.check != nil {
				tc.check(t, o.String(), e.String())
			}
		})
	}
}
