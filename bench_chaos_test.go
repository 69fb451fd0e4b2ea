// BenchmarkChaos measures the cluster's behaviour under the seeded fault
// storms of internal/chaos and records the evidence in BENCH_chaos.json:
// how many faults were injected, how many requests were lost (the row is a
// failure if that is ever non-zero), and the served-latency p99 during the
// storm versus after it heals. The headline gate is the breaker story: the
// p99 of warm cache hits served by healthy nodes during a partition must
// stay within 2x of the no-fault baseline — open breakers are supposed to
// keep the healthy replicas fast while the sick node is routed around.
// BENCH_CHAOS_SECS (float seconds, default 1.0) sets the storm duration;
// nightly CI runs a longer storm and uploads the JSON.
package repro

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
)

// chaosBenchRow is one schedule's measurement in BENCH_chaos.json.
type chaosBenchRow struct {
	Schedule       string   `json:"schedule"`
	Seed           int64    `json:"seed"`
	Faults         int      `json:"faults"`
	FaultsInjected uint64   `json:"faults_injected"`
	Offered        int      `json:"offered"`
	OK             int      `json:"ok"`
	Shed           int      `json:"shed"`
	Timeouts       int      `json:"timeouts"`
	Unavailable    int      `json:"unavailable"`
	RequestsLost   int      `json:"requests_lost"`
	MisErrored     int      `json:"mis_errored"`
	CostMismatches int      `json:"cost_mismatches"`
	Failovers      uint64   `json:"failovers"`
	Overflows      uint64   `json:"overflows"`
	BreakerSkips   uint64   `json:"breaker_skips"`
	Retries        uint64   `json:"retries"`
	Quarantined    uint64   `json:"quarantined"`
	StormP99Ms     float64  `json:"storm_p99_ms"`
	HealedP99Ms    float64  `json:"healed_p99_ms"`
	WarmHealthyMs  float64  `json:"warm_healthy_p99_ms"`
	Violations     []string `json:"violations,omitempty"`
}

func chaosRow(rep *chaos.Report) chaosBenchRow {
	return chaosBenchRow{
		Schedule:       rep.Schedule,
		Seed:           rep.Seed,
		Faults:         rep.Faults,
		FaultsInjected: rep.Injected,
		Offered:        rep.Offered,
		OK:             rep.OK,
		Shed:           rep.Shed,
		Timeouts:       rep.Timeouts,
		Unavailable:    rep.Unavailable,
		RequestsLost:   rep.Lost + rep.MisErrored,
		MisErrored:     rep.MisErrored,
		CostMismatches: rep.CostMismatches,
		Failovers:      rep.Cluster.Failovers,
		Overflows:      rep.Cluster.Overflows,
		BreakerSkips:   rep.Cluster.BreakerSkips,
		Retries:        rep.Cluster.Retries,
		Quarantined:    rep.Cluster.Quarantined,
		StormP99Ms:     ms(rep.StormP99),
		HealedP99Ms:    ms(rep.HealedP99),
		WarmHealthyMs:  ms(rep.WarmHealthyP99),
		Violations:     rep.Violations(),
	}
}

func BenchmarkChaos(b *testing.B) {
	secs := 1.0
	if env := os.Getenv("BENCH_CHAOS_SECS"); env != "" {
		if v, err := strconv.ParseFloat(env, 64); err == nil && v > 0 {
			secs = v
		}
	}
	phase := time.Duration(secs * float64(time.Second))
	cfg := chaos.Config{Rate: 250, Phase: phase}

	schedules := []chaos.Schedule{
		chaos.ControlSchedule(benchSeed),
		chaos.KillSchedule(benchSeed, phase),
		chaos.PartitionSchedule(benchSeed, phase),
		chaos.SlowFlapSchedule(benchSeed, phase),
	}

	var rows []chaosBenchRow
	var baselineWarm time.Duration
	b.Run("storms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows = rows[:0]
			for _, sched := range schedules {
				rep := chaos.Run(context.Background(), cfg, sched)
				row := chaosRow(rep)
				if sched.Name == "control" {
					baselineWarm = rep.WarmHealthyP99
				}
				if row.RequestsLost != 0 {
					b.Errorf("%s: %d request(s) lost or mis-errored — the row is a failure", sched.Name, row.RequestsLost)
				}
				for _, v := range row.Violations {
					b.Errorf("%s: %s", sched.Name, v)
				}
				// The breaker gate, with a 5ms absolute floor so sub-ms
				// jitter on an idle CI runner cannot fake a regression; raw
				// values land in the JSON either way.
				if sched.Name == "partition" && baselineWarm > 0 &&
					rep.WarmHealthyP99 > 2*baselineWarm+5*time.Millisecond {
					b.Errorf("partition: warm-healthy p99 %v exceeds 2x no-fault baseline %v — breakers are not protecting the healthy replicas",
						rep.WarmHealthyP99, baselineWarm)
				}
				b.Logf("%s: offered=%d ok=%d lost=%d injected=%d failovers=%d skips=%d retries=%d storm_p99=%v healed_p99=%v warm_healthy_p99=%v",
					sched.Name, row.Offered, row.OK, row.RequestsLost, row.FaultsInjected,
					row.Failovers, row.BreakerSkips, row.Retries, rep.StormP99, rep.HealedP99, rep.WarmHealthyP99)
				rows = append(rows, row)
			}
		}
	})

	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_chaos.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_chaos.json (%d rows)", len(rows))
}
