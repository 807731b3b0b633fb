// Command cpmabench is the repository's benchmark: four workloads that
// together cover every layer of the system (the core CPMA, the sharded
// async pipeline and its snapshots, the WAL and checkpoints, replication,
// and the streaming F-Graph), with their outputs verified.
//
//	cpmabench run  [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//	               [--scale default|smoke] [--out FILE] [--spans DIR] [--workdir DIR]
//	cpmabench diff A B
//
// run prints every metric it measured by name with its unit, and as its
// last line one JSON object with the verification tally and the metrics:
// the end-to-end metrics, or with --trace 1 the per-layer metrics. --out
// writes the full result with its envelope (commit, toolchain, machine);
// diff compares two sets of such files. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	err := errors.New("usage: cpmabench run|diff [flags]")
	if len(os.Args) > 1 {
		switch cmd, args := os.Args[1], os.Args[2:]; cmd {
		case "run":
			err = runCmd(args, os.Stdout)
		case "diff":
			err = diffCmd(args, os.Stdout)
		default:
			err = fmt.Errorf("unknown command %q (want run or diff)", cmd)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpmabench:", err)
		os.Exit(1)
	}
}

// wlResult is one workload's outcome.
type wlResult struct {
	Name          string               `json:"name"`
	Params        any                  `json:"params"`
	Correct       bool                 `json:"correct"`
	Attempted     int64                `json:"attempted"`
	Failed        int64                `json:"failed"`
	FailedOpsFrac float64              `json:"failed_ops_frac"`
	Failures      []string             `json:"failures,omitempty"`
	Metrics       map[string]metricVal `json:"metrics"`
	Layers        []layerRow           `json:"layers,omitempty"`
}

// envelope is a result file: the run's provenance and every workload's
// result.
type envelope struct {
	Schema       string     `json:"schema"`
	Commit       string     `json:"commit"`
	CommitSource string     `json:"commit_source"`
	Modified     bool       `json:"modified"`
	GoVersion    string     `json:"go_version"`
	OSArch       string     `json:"os_arch"`
	CPUModel     string     `json:"cpu_model"`
	NProc        int        `json:"nproc"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	Seed         uint64     `json:"seed"`
	Seconds      float64    `json:"seconds"`
	Scale        string     `json:"scale"`
	Trace        bool       `json:"trace"`
	Runs         int        `json:"runs"`
	Started      time.Time  `json:"started"`
	Workloads    []wlResult `json:"workloads"`
}

const schema = "cpmabench/1"

func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	scale := fs.String("scale", "default", "input sizes: default or smoke")
	out := fs.String("out", "", "write the result with its envelope to this file")
	spans := fs.String("spans", "", "traced runs: write each workload's spans into this directory")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for on-disk stores")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *scale != "default" && *scale != "smoke" {
		return fmt.Errorf("--scale must be default or smoke")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", *name)
	}
	o := runOpts{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		scale:   *scale,
		trace:   *trace == 1,
		workdir: *workdir,
	}
	env := envelope{
		Schema: schema, Seed: o.seed, Seconds: *seconds, Scale: o.scale, Trace: o.trace,
		Runs: 1, Started: time.Now().UTC(),
	}
	for _, w := range selected {
		res, tr, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if tr != nil && *spans != "" {
			if err := os.MkdirAll(*spans, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
			if err := tr.writeSpans(path); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
		env.Workloads = append(env.Workloads, *res)
		if err := printResult(stdout, res, o.trace); err != nil {
			return err
		}
	}
	if *out != "" {
		fillProvenance(&env)
		blob, err := json.MarshalIndent(env, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload runs one workload and returns its result, and the traced
// pass's tracer on a traced run.
func runWorkload(w workload, o runOpts) (*wlResult, *tracer, error) {
	r := &runner{runOpts: o, name: w.name, metrics: map[string]metricVal{}}
	if err := w.run(r); err != nil {
		return nil, nil, err
	}
	res := &wlResult{
		Name: w.name, Params: r.params,
		Attempted: r.chk.attempted.Load(), Failed: r.chk.failed.Load(),
		Failures: r.chk.notes, Metrics: map[string]metricVal{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.FailedOpsFrac = ratio(float64(res.Failed), float64(res.Attempted))
	if o.trace {
		res.Layers = r.tr.table()
	}
	// The result holds every metric the run measured, and every metric of
	// its list, 0 where the workload does not exercise it.
	for name, m := range r.metrics {
		res.Metrics[name] = m
	}
	for _, spec := range reportList(o.trace) {
		if _, ok := res.Metrics[spec.Name]; !ok {
			res.Metrics[spec.Name] = metricVal{Unit: spec.Unit}
		}
	}
	return res, r.tr, nil
}

// reportList is the metrics the result line of a run holds: the end-to-end
// metrics, or on a traced run the per-layer ones.
func reportList(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of a workload's result as a table and
// then the one-line JSON result with the metrics of its list.
func printResult(w io.Writer, res *wlResult, traced bool) error {
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", res.Name, res.Correct, res.Attempted, res.Failed)
	for _, spec := range catalog {
		if m, ok := res.Metrics[spec.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %-8s n=%d\n", spec.Name, m.Value, m.Unit, m.N)
		}
	}
	if traced {
		printTable(w, res.Layers)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]lineMetric{}}
	for _, spec := range reportList(traced) {
		m := res.Metrics[spec.Name]
		line.Metrics[spec.Name] = lineMetric{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// fillProvenance records where and with what the run was made.
func fillProvenance(env *envelope) {
	env.GoVersion = runtime.Version()
	env.OSArch = runtime.GOOS + "/" + runtime.GOARCH
	env.NProc = runtime.NumCPU()
	env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	env.CPUModel = cpuModel()
	env.Commit, env.CommitSource = "unknown", "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit, env.CommitSource = s.Value, "buildinfo"
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	if env.CommitSource == "none" {
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit, env.CommitSource = strings.TrimSpace(string(rev)), "git"
		}
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// readEnvelope loads a result file.
func readEnvelope(path string) (*envelope, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if env.Schema != schema {
		return nil, errors.New(path + ": not a cpmabench result file")
	}
	return &env, nil
}
