package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cli from this build's output")

// TestMain doubles as the CLI: re-run with "wrbpg <subcommand> ..."
// after the test flags, the test binary runs main on those arguments,
// so TestCLIGolden can capture stdout from commands that end in
// os.Exit.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 && args[0] == "wrbpg" {
		os.Args = args
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIGolden pins the stdout of schedule (at minimum memory and at
// an explicit budget), compile and minmem for every parametric
// workload at TestBuildAllWorkloads' sizes, byte for byte against
// testdata/cli. cdag is left out: its parallel anytime report is not
// deterministic.
func TestCLIGolden(t *testing.T) {
	workloads := []struct {
		name   string
		flags  string
		budget string
	}{
		{"dwt-equal", "-workload dwt -n 16 -d 4", "64"},
		{"dwt-da", "-workload dwt -n 16 -d 4 -weights da", "128"},
		{"mvm", "-workload mvm -m 4 -n 6", "80"},
		{"fft", "-workload fft -n 16 -weights da", "256"},
		{"mmm", "-workload mmm -m 3 -k 2 -n 4", "128"},
		{"conv", "-workload conv -n 12 -taps 4 -d 2", "48"},
	}
	type run struct{ name, args string }
	var runs []run
	for _, w := range workloads {
		runs = append(runs,
			run{w.name + "-schedule", "schedule " + w.flags},
			run{w.name + "-schedule-budget", "schedule " + w.flags + " -budget " + w.budget},
			run{w.name + "-compile", "compile " + w.flags},
			run{w.name + "-minmem", "minmem " + w.flags},
		)
	}
	runs = append(runs, run{"conv-schedule-moves", "schedule -workload conv -n 12 -taps 4 -d 2 -moves -trace"})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"wrbpg"}, strings.Fields(r.args)...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("wrbpg %s: %v\n%s", r.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", "cli", r.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to record)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wrbpg %s: stdout differs from %s\ngot:\n%s\nwant:\n%s", r.args, path, got, want)
			}
		})
	}
}
