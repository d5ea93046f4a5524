// Command zipserv-serve runs the end-to-end serving simulation (§6.5)
// for one deployment and prints latency, throughput and the memory
// plan, optionally comparing all four serving backends (-compare).
//
// With -live it instead replays a synthetic Poisson trace through the
// live continuous-batching scheduler (internal/serve) and through the
// offline static-batch path, and reports the goodput gain of
// iteration-level scheduling with token-packed prefill.
//
// With -scenario NAME it replays one fixed workload through the live
// stack under rival configurations and prints one row per variant;
// -csv also writes the table as CSV, and -require-win exits non-zero
// unless the scenario's win predicate holds (the CI gate). The
// scenarios:
//
//	prefix    KV prefix cache off vs on: TTFT and prefill work
//	chunking  prefill chunk budgets none/64/256/1024: decode TPOT and stalls
//	adaptive  static chunk budgets vs the adaptive controllers: decode TPOT p99
//	compress  compressed cold-block cache off vs on under KV pressure: prefix hits
//	disagg    co-located fleets vs a 1+1 prefill/decode fleet: decode TPOT p99
//	affinity  least-loaded vs prefix-affinity routing on 4 replicas: prefix hits, TTFT
//	chaos     health routing on vs off under a scripted crash: losses, replays
//	policies  fifo, priority and slo admission: per-class TTFT
//
// Usage:
//
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -batch 32 -out 2048
//	zipserv-serve -model LLaMA3.1-70B -device L40S -gpus 4 -compare
//	zipserv-serve -model LLaMA3.1-8B -device RTX4090 -live -requests 64 -rate 100
//	zipserv-serve -scenario prefix -require-win -csv compare-prefix.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"zipserv"
)

func main() {
	if err := runCLI(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "zipserv-serve:", err)
		os.Exit(1)
	}
}

// runCLI parses args and runs the selected mode, printing to stdout.
func runCLI(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("zipserv-serve", flag.ExitOnError)
	model := fs.String("model", "LLaMA3.1-8B", "model name from the zoo")
	device := fs.String("device", "RTX4090", "GPU model")
	gpus := fs.Int("gpus", 1, "tensor-parallel degree")
	backend := fs.String("backend", "zipserv", "serving backend: zipserv, vllm, transformers, dfloat11")
	batch := fs.Int("batch", 32, "request batch size")
	prompt := fs.Int("prompt", 128, "prompt length in tokens")
	out := fs.Int("out", 512, "output length in tokens")
	compare := fs.Bool("compare", false, "run all four backends and compare")
	live := fs.Bool("live", false, "replay a synthetic trace through the live continuous-batching scheduler")
	scenarioName := fs.String("scenario", "",
		"replay one fixed workload under rival configurations: "+strings.Join(scenarioNames(), ", "))
	requireWin := fs.Bool("require-win", false,
		"scenario: exit non-zero unless the scenario's win predicate holds (CI perf-regression gate)")
	csvPath := fs.String("csv", "", "scenario: also write the table as CSV to this path")
	requests := fs.Int("requests", 64, "live mode: number of trace requests")
	rate := fs.Float64("rate", 100, "live mode: Poisson arrival rate (req/s)")
	seed := fs.Int64("seed", 7, "live mode: trace seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base, err := deployment(*model, *device, *gpus, *backend)
	if err != nil {
		return err
	}
	switch {
	case *scenarioName != "":
		sc, err := scenarioByName(*scenarioName)
		if err != nil {
			return err
		}
		return runScenario(stdout, sc, base, *requireWin, *csvPath)
	case *requireWin:
		return errors.New("-require-win needs -scenario")
	case *csvPath != "":
		return errors.New("-csv needs -scenario")
	case *live:
		return runLive(stdout, base, *requests, *rate, *prompt, *out, *seed)
	default:
		return run(stdout, base, *batch, *prompt, *out, *compare)
	}
}

// deployment resolves the model and device names into an engine
// config for the given tensor-parallel degree and backend.
func deployment(modelName, device string, gpus int, backend string) (zipserv.ServingConfig, error) {
	model, err := zipserv.ModelByName(modelName)
	if err != nil {
		return zipserv.ServingConfig{}, err
	}
	dev, err := zipserv.GPUByName(device)
	if err != nil {
		return zipserv.ServingConfig{}, err
	}
	return zipserv.ServingConfig{
		Model:   model,
		Device:  dev,
		NumGPUs: gpus,
		Backend: zipserv.ServingBackend(backend),
	}, nil
}

func run(w io.Writer, base zipserv.ServingConfig, batch, prompt, out int, compare bool) error {
	backends := []zipserv.ServingBackend{base.Backend}
	if compare {
		backends = []zipserv.ServingBackend{
			zipserv.ServeZipServ, zipserv.ServeVLLM, zipserv.ServeTransformers, zipserv.ServeDFloat11,
		}
	}

	fmt.Fprintf(w, "deployment: %s on %dx %s, batch %d, prompt %d, output %d\n\n",
		base.Model.Name, base.NumGPUs, base.Device.Name, batch, prompt, out)
	fmt.Fprintf(w, "%-14s %12s %14s %10s %8s %12s %12s\n",
		"backend", "latency(s)", "tput(tok/s)", "waves", "conc", "weights(GiB)", "KV cap(GiB)")
	var zipThroughput float64
	for _, b := range backends {
		cfg := base
		cfg.Backend = b
		eng, err := zipserv.NewEngine(cfg)
		if err != nil {
			fmt.Fprintf(w, "%-14s does not fit: %v\n", b, err)
			continue
		}
		m, err := eng.Run(batch, prompt, out)
		if err != nil {
			fmt.Fprintf(w, "%-14s failed: %v\n", b, err)
			continue
		}
		fmt.Fprintf(w, "%-14s %12.2f %14.1f %10d %8d %12.2f %12.2f\n",
			b, m.TotalSeconds, m.Throughput, m.Waves, m.MaxConcurrent, m.WeightGiB, m.KVCapacityGiB)
		if b == zipserv.ServeZipServ {
			zipThroughput = m.Throughput
		} else if compare && zipThroughput > 0 {
			fmt.Fprintf(w, "%-14s   (ZipServ speedup: %.2fx)\n", "", zipThroughput/m.Throughput)
		}
	}
	return nil
}

// runLive replays one synthetic trace twice — through the live
// continuous-batching scheduler and through the offline static-batch
// path — and prints the goodput comparison.
func runLive(w io.Writer, base zipserv.ServingConfig, n int, rate float64, prompt, out int, seed int64) error {
	eng, err := zipserv.NewEngine(base)
	if err != nil {
		return err
	}
	trace := zipserv.SyntheticTrace(n, rate, prompt, out, seed)
	if trace == nil {
		return fmt.Errorf("invalid trace parameters")
	}

	offline, _, err := eng.Serve(trace)
	if err != nil {
		return err
	}

	reqs := make([]zipserv.LiveRequest, len(trace))
	for i, r := range trace {
		reqs[i] = zipserv.LiveRequest{
			PromptLen: r.PromptLen, OutputLen: r.OutputLen, Arrival: r.ArrivalSeconds,
		}
	}
	o, err := runVariant(base, variant{label: "live", replicas: []zipserv.LiveConfig{{}}}, workload{reqs: reqs})
	if err != nil {
		return err
	}
	st := o.stats

	liveGoodput := float64(st.Completed) / st.SimSeconds
	offGoodput := float64(offline.Requests) / offline.MakespanSeconds
	fmt.Fprintf(w, "trace: %d requests, %.0f req/s Poisson, prompt~%d, output~%d (%s on %dx %s, %s)\n\n",
		n, rate, prompt, out, base.Model.Name, base.NumGPUs, base.Device.Name, base.Backend)
	fmt.Fprintf(w, "%-26s %14s %14s %12s %12s\n", "scheduler", "makespan(s)", "goodput(r/s)", "meanTTFT(s)", "peak conc")
	fmt.Fprintf(w, "%-26s %14.2f %14.2f %12.3f %12d\n",
		"offline static-batch", offline.MakespanSeconds, offGoodput, offline.MeanTTFT, offline.PeakConcurrency)
	fmt.Fprintf(w, "%-26s %14.2f %14.2f %12.3f %12d\n",
		"live continuous-batching", st.SimSeconds, liveGoodput, st.MeanTTFT, st.PeakConcurrency)
	fmt.Fprintf(w, "\nlive goodput gain: %.2fx\n", liveGoodput/offGoodput)
	return nil
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
