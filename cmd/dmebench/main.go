package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/obs"
)

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		only     = flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long a run measures, in seconds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "dmebench.jsonl"), "results file each run appends a JSON record to (empty: none)")
		traceDir = flag.String("trace-out", ".bench_build", "directory a traced run writes its span trees to")
		compare  = flag.Bool("compare", false, "compare two results files: dmebench -compare base.jsonl new.jsonl")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition -compare reads its bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			usage("-compare takes two results files")
		}
		if err := runCompare(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		usage("unexpected arguments: " + strings.Join(flag.Args(), " "))
	}
	if *trace != 0 && *trace != 1 {
		usage("-trace is 0 or 1")
	}
	if !(*seconds >= 0) {
		usage("-seconds must be non-negative")
	}
	selected := workloads
	if *only != "all" {
		w, ok := workloadByName(*only)
		if !ok {
			usage("unknown workload " + *only)
		}
		selected = []workload{w}
	}

	prov := obs.CollectProvenance()
	pass := true
	for _, w := range selected {
		rec, err := runOne(w, *seed, *seconds, *trace == 1, *traceDir)
		if err != nil {
			fatal(err)
		}
		rec.Provenance = prov
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		printRecord(os.Stdout, rec)
		pass = pass && rec.Correct && rec.Failed == 0
		runtime.GC() // the next workload starts on a collected heap
	}
	if !pass {
		os.Exit(1)
	}
}

// record is one run's results: the last line of standard output holds its
// first four fields, and the results file holds all of it.
type record struct {
	Correct     bool            `json:"correct"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	Metrics     metrics         `json:"metrics"`
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Seconds     float64         `json:"seconds"`
	Trace       bool            `json:"trace"`
	Problems    []string        `json:"problems,omitempty"`
	Calibration calibration     `json:"calibration"`
	Provenance  *obs.Provenance `json:"provenance,omitempty"`
}

// runOne measures one workload, traced or not; a traced run also writes its
// span tree to traceDir.
func runOne(w workload, seed int64, seconds float64, traced bool, traceDir string) (*record, error) {
	fmt.Fprintf(os.Stderr, "dmebench: %s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, traced)
	var o *outcome
	var err error
	if traced {
		var root *obs.Trace
		o, root, err = measureLayers(w, full, seed, seconds)
		if err == nil {
			if err = os.MkdirAll(traceDir, 0o755); err == nil {
				err = obs.WriteJSONFile(filepath.Join(traceDir, "dmebench-trace-"+w.name+".json"), root)
			}
		}
	} else {
		o, err = measureEndToEnd(w, full, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	return &record{
		Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics,
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		Problems: o.problems, Calibration: o.calib,
	}, nil
}

// printRecord prints every metric by name with its unit, then the run's
// summary as one JSON object on the last line.
func printRecord(w io.Writer, rec *record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-18s %-28s %-14.6g %s\n", rec.Workload, d.name, v.Value, v.Unit)
		}
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(os.Stderr, "dmebench: %s: %s\n", rec.Workload, p)
	}
	fmt.Fprintf(os.Stderr, "dmebench: %s: %d ops, %d failed, calibration %.4fs before, %.4fs after\n",
		rec.Workload, rec.Attempted, rec.Failed, rec.Calibration.BeforeS, rec.Calibration.AfterS)
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendRecord appends the record as one JSON line to the results file.
func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return recs, nil
}

func usage(msg string) {
	fmt.Fprintf(os.Stderr, "dmebench: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dmebench: %v\n", err)
	os.Exit(1)
}
