// Command perf is the repository's benchmark. It drives four fixed workloads
// through the public entry points — sunfloor3d.Synthesize and the
// internal/server handler over loopback TCP — prints every end-to-end metric
// by name and unit, and checks every output against committed digests. A
// traced run (-trace 1) replays each call's attempts through the engine's
// layers and prints the per-layer metrics instead. See README.md.
//
// Run it from the repository root with perf/run.sh, or from perf/ with
// go run:
//
//	go run . -workload sweep -seed 1       one run of one workload
//	go run . -runs 5 -seed 1 > A.jsonl     every workload, five seeds each
//	go run . -compare A.jsonl B.jsonl      compare two sets of runs
//	go run . -smoke                        quick check on reduced inputs
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

func main() {
	var err error
	if os.Getenv(hostKernelEnv) == "1" {
		err = serveHostKernel(os.Stdin, os.Stdout)
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// errIncorrect reports that a run measured but its outputs were wrong or
// some calls failed.
var errIncorrect = errors.New("outputs were wrong or calls failed")

func run() error {
	workload := flag.String("workload", "", "workload to run: sweep, sim, signoff or serve (default: every workload, each in its own child process)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs one traced pass and prints the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: run every workload this many times, on seeds seed, seed+1, ...")
	smoke := flag.Bool("smoke", false, "run each workload once on its reduced inputs")
	compare := flag.Bool("compare", false, "compare two sets of run records: -compare A.jsonl B.jsonl")
	update := flag.Bool("update-digests", false, "recompute testdata/digests.json at seed 1")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		return err
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two files of run records")
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	case *update:
		return updateDigests(root)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *seconds < 1:
		return errors.New("-seconds must be at least 1")
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, smoke: *smoke, root: root}
	if *workload == "" {
		return runChildren(cfg, *runs)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (valid: %v)", *workload, workloadNames)
	}
	cfg.workload = *workload
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := rep.write(os.Stdout); err != nil {
		return err
	}
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// repoRoot finds the repository root from the current directory (the root
// itself or perf/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "perf", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the repository root or from perf/")
}

// runChildren runs every workload in its own child process, so that each
// workload's set-up time and peak memory are its own, one after another.
// Every run prints one record line on stdout; the children's metric lines go
// to stderr.
func runChildren(cfg runConfig, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloadNames {
			seed := cfg.seed + int64(r)
			trace := 0
			if cfg.trace {
				trace = 1
			}
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(int(cfg.seconds / time.Second)), "-trace", strconv.Itoa(trace)}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Dir = cfg.root
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			for _, l := range lines[:len(lines)-1] {
				fmt.Fprintf(os.Stderr, "%s\n", l)
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: no result (%v)", w, seed, runErr)
			}
			if runErr != nil || !res.Correct {
				failed = true
			}
			b, err := json.Marshal(runRecord{Workload: w, Seed: seed, Trace: trace, Result: res})
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", b)
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

func compareFiles(root, a, b string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	ra, err := readRecords(a)
	if err != nil {
		return err
	}
	rb, err := readRecords(b)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	worse := compareSets(spec, ra, rb, w)
	if err := w.Flush(); err != nil {
		return err
	}
	if worse {
		return errors.New("some metric got worse beyond its bound")
	}
	return nil
}

// updateDigests recomputes the committed digests of every call the
// workloads make at seed 1, full and smoke inputs alike.
func updateDigests(root string) error {
	const seed = 1
	f := &digestFile{Seed: seed, Calls: map[string]callDigest{}}
	var jobs []synthJob
	for _, smoke := range []bool{false, true} {
		for _, w := range workloadNames[:3] {
			js, err := synthJobs(w, seed, smoke)
			if err != nil {
				return err
			}
			jobs = append(jobs, js...)
		}
	}
	in, err := makeServeInput(seed, false)
	if err != nil {
		return err
	}
	all := make([]int, len(in.gens))
	for d := range all {
		all[d] = d
	}
	js, err := serveJobs(in, all)
	if err != nil {
		return err
	}
	jobs = append(jobs, js...)
	for k, r := range directSynthesize(jobs) {
		if r.err != nil {
			return fmt.Errorf("%s: %w", jobs[k].label, r.err)
		}
		f.Calls[jobs[k].label] = r.digest
	}
	return f.save(runConfig{root: root}.digestPath())
}
