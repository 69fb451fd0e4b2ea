// Command perfbench is the repository benchmark. It builds nothing
// itself: perfbench/run.sh builds mpdp-serve and this driver from the
// checkout, then runs
//
//	perfbench -server <mpdp-serve> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload starts a real `mpdp-serve -http` on loopback and drives it
// from this one process over at most nproc connections. Every answer is
// checked against a reference plan cost computed in-process through
// internal/core (never through the service router). With --trace 0 the
// last stdout line is the end-to-end result; with --trace 1 it is the
// per-layer result of the traced run (layers.go). WORKLOADS.md records why
// each workload exists and which layer metric should move which
// end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a claimed gain: tune on other
// seeds, then check the claim holds on this one.
const heldOutSeed = 20261017

// workloadDef is one named workload.
type workloadDef struct {
	name string
	// budget, workers and threads are mpdp-serve's -timeout, -workers and
	// -threads (0: the binary's default); the traced run's in-process
	// replay uses the same service configuration.
	budget           time.Duration
	workers, threads int
	// setups is how many times a run sets the server up; setup_s is the
	// median. A cold set-up is a few milliseconds of process start, so it
	// is repeated more often than a serve workload's warm-up.
	setups int
	// rate is the open-loop offered rate in req/s; 0 means a closed loop
	// with one client over rounds of cold queries.
	rate float64
	// build generates the workload's inputs from the seed for a run of d.
	build func(w *workloadDef, seed int64, d time.Duration) (*inputs, error)
}

// inputs are the generated requests of one run.
type inputs struct {
	warmup []*request
	main   []*request
	at     []time.Duration // open loop: due offsets of main
	round  int             // closed loop: requests per round of main
	peak   []*request      // closed-loop throughput phase (serve-zipf)
	peakD  time.Duration
}

// serveRate is the offered rate of both serve workloads: about a quarter
// of serve-zipf's closed-loop peak on a 2-core host. At half the peak the
// tail latencies varied too much from run to run to compare two commits.
const serveRate = 400

// coldLargeBudget is the -timeout of cold-large: the exact route's budget
// before the heuristic fallback answers.
const coldLargeBudget = 150 * time.Millisecond

// defaultBudget is mpdp-serve's default -timeout.
const defaultBudget = 30 * time.Second

// The serve workloads run their misses on one worker thread, which leaves
// a core to the request path they measure instead of letting a parallel
// enumeration hold both cores for a scheduler quantum.
var workloads = []*workloadDef{
	{name: "serve-zipf", budget: defaultBudget, workers: 1, threads: 1, setups: 5, rate: serveRate, build: buildServeZipf},
	{name: "serve-drift", budget: defaultBudget, workers: 1, threads: 1, setups: 9, rate: serveRate, build: buildServeDrift},
	{name: "cold-exact", budget: defaultBudget, setups: 15, build: buildCold(coldExactRound)},
	{name: "cold-large", budget: coldLargeBudget, setups: 15, build: buildCold(coldLargeRound)},
}

// serverArgs are the mpdp-serve flags beyond -http.
func (w *workloadDef) serverArgs() []string {
	args := []string{"-timeout", w.budget.String()}
	if w.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.workers))
	}
	if w.threads > 0 {
		args = append(args, "-threads", strconv.Itoa(w.threads))
	}
	return args
}

func buildServeZipf(w *workloadDef, seed int64, d time.Duration) (*inputs, error) {
	g, err := newServeGen(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{warmup: g.pool}
	in.at = poissonSchedule(w.rate, d, rand.New(rand.NewSource(seed+1)))
	for range in.at {
		r, err := g.next()
		if err != nil {
			return nil, err
		}
		in.main = append(in.main, r)
	}
	// The peak phase needs more requests than two connections can send in
	// its time; unsent ones are never checked or counted.
	in.peakD = d * 3 / 10
	for i := 0; i < int(in.peakD.Seconds()*8000)+100; i++ {
		r, err := g.next()
		if err != nil {
			return nil, err
		}
		in.peak = append(in.peak, r)
	}
	return in, nil
}

func buildServeDrift(w *workloadDef, seed int64, d time.Duration) (*inputs, error) {
	g := newDriftGen(seed)
	in := &inputs{warmup: g.windows}
	in.at = poissonSchedule(w.rate, d, rand.New(rand.NewSource(seed+1)))
	for range in.at {
		in.main = append(in.main, g.next())
	}
	return in, nil
}

// buildCold pregenerates more rounds than the run can send; the closed
// loop stops after the round during which the time runs out.
func buildCold(round []coldSpec) func(*workloadDef, int64, time.Duration) (*inputs, error) {
	return func(_ *workloadDef, seed int64, d time.Duration) (*inputs, error) {
		warm := newColdGen([]coldSpec{{"chain", 8}, {"star", 8}, {"cycle", 8}, {"clique", 6}}, seed^0x5eed)
		w, err := warm.nextRound()
		if err != nil {
			return nil, err
		}
		g := newColdGen(round, seed)
		in := &inputs{warmup: w, round: len(round)}
		for i := 0; i < 4*int(d.Seconds())+4; i++ {
			rs, err := g.nextRound()
			if err != nil {
				return nil, err
			}
			in.main = append(in.main, rs...)
		}
		return in, nil
	}
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics: the ones BENCHMARK.json names go into
// the result line, every one goes into the printed table.
type report struct {
	names  []string
	values map[string]metric
}

func newReport() *report { return &report{values: map[string]metric{}} }

func (r *report) add(name, unit string, v float64) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: v, Unit: unit}
}

// hostInfo is recorded with every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	HeldOut    int64  `json:"held_out_seed"`
}

func host(seed int64) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seed: seed, HeldOut: heldOutSeed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// outcome is what one workload run returns.
type outcome struct {
	rep       *report
	attempted int
	failed    int
	errs      []string // oracle mismatches: not correct
	refused   []string // non-200 answers: counted in failed only
}

func main() {
	serverBin := flag.String("server", "", "path of the mpdp-serve binary")
	name := flag.String("workload", "", "workload name, or all: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
	flag.Parse()

	if *serverBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	var defs []*workloadDef
	if *name == "all" {
		defs = workloads
	} else if w := findWorkload(*name); w != nil {
		defs = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	declared := sp.EndToEnd
	if *trace == 1 {
		declared = sp.PerLayer
	}
	if err := selfCheck(*seed); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: self-check failed: %v\n", err)
		os.Exit(1)
	}

	h := host(*seed)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	d := time.Duration(*seconds) * time.Second
	final := result{Correct: true, Metrics: map[string]metric{}}
	all := map[string]map[string]metric{}
	for _, w := range defs {
		var out *outcome
		if *trace == 1 {
			out, err = runTraced(*serverBin, w, *seed, d)
		} else {
			out, err = runEndToEnd(*serverBin, w, *seed, d)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printTable(w.name, out)
		final.Attempted += out.attempted
		final.Failed += out.failed
		if len(out.errs) > 0 {
			final.Correct = false
		}
		m, err := selectMetrics(out.rep, declared)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		all[w.name], final.Metrics = m, m
	}
	var line []byte
	if len(defs) == 1 {
		line, _ = json.Marshal(final)
	} else {
		line, _ = json.Marshal(struct {
			Correct   bool                         `json:"correct"`
			Attempted int                          `json:"attempted"`
			Failed    int                          `json:"failed"`
			Metrics   map[string]map[string]metric `json:"metrics"`
		}{final.Correct, final.Attempted, final.Failed, all})
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the driver reads: the metrics the
// result line must carry.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// selectMetrics picks exactly the declared metrics out of a report; a
// declared metric the run did not produce, or produced in another unit,
// is an error.
func selectMetrics(rep *report, names []specMetric) (map[string]metric, error) {
	out := map[string]metric{}
	for _, n := range names {
		m, ok := rep.values[n.Name]
		if !ok || m.Unit != n.Unit {
			return nil, fmt.Errorf("metric %s (%s) not produced as declared (got %+v)", n.Name, n.Unit, m)
		}
		out[n.Name] = m
	}
	return out, nil
}

func printTable(name string, out *outcome) {
	fmt.Printf("workload %s: attempted %d, failed %d\n", name, out.attempted, out.failed)
	names := append([]string(nil), out.rep.names...)
	sort.Strings(names)
	for _, n := range names {
		m := out.rep.values[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range []struct {
		tag  string
		msgs []string
	}{{"FAIL", out.errs}, {"REFUSED", out.refused}} {
		for i, m := range l.msgs {
			if i == 10 {
				fmt.Printf("  ... %d more\n", len(l.msgs)-i)
				break
			}
			fmt.Printf("  %s %s\n", l.tag, m)
		}
	}
}
