// Command fisimctl is the thin client for the fisimd batch-simulation
// daemon: it submits experiment-grid jobs, polls or streams their
// progress, and fetches results, speaking the plain HTTP/JSON API of
// docs/API.md — anything it does can be reproduced with curl.
//
//	fisimctl -addr http://localhost:8023 submit -bench median -model C \
//	    -lo 690 -hi 730 -step 20 -trials 8 -wait -format csv
//	fisimctl submit -bench median -priority batch -trials 100 ...
//	fisimctl -api-key team-a status j000001
//	fisimctl result j000001 -format csv -o out.csv
//	fisimctl watch j000001
//	fisimctl cancel j000001
//	fisimctl stats
//
// Requests ride on internal/client's retry layer: transient failures
// (connection errors, 429 shed/rate-limit responses, 502/503/504) are
// retried with jittered exponential backoff, honoring the daemon's
// Retry-After advice. Retrying a submission is safe by construction —
// fisimd dedups by content fingerprint, so a replayed spec lands on the
// already-scheduled job instead of double-running the grid. -retries 1
// disables retrying.
//
// submit prints the job ID (and, with -wait, blocks until the job is
// terminal and prints the result). Result documents include each
// point's application-quality distribution (mean/P50/P99 plus a
// Wilson-style interval) in both the JSON and CSV encodings — see
// docs/API.md for the field names. Exit status is non-zero on failed
// or cancelled jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fisimctl: ")
	addr := flag.String("addr", envOr("FISIMD_ADDR", "http://localhost:8023"), "fisimd base URL (or $FISIMD_ADDR)")
	apiKey := flag.String("api-key", envOr("FISIMD_API_KEY", ""), "tenant API key, sent as X-API-Key (or $FISIMD_API_KEY)")
	retries := flag.Int("retries", 6, "attempts per request incl. the first (1 = no retry)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the command (0 = none)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fisimctl [-addr URL] [-api-key KEY] {submit|status|result|watch|cancel|list|stats} ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := &ctl{
		ctx: ctx,
		api: client.New(client.Config{
			Base:        strings.TrimRight(*addr, "/"),
			APIKey:      *apiKey,
			MaxAttempts: *retries,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "fisimctl: "+format+"\n", a...)
			},
		}),
	}
	var err error
	switch args[0] {
	case "submit":
		err = c.submit(args[1:])
	case "status":
		err = c.status(args[1:])
	case "result":
		err = c.result(args[1:])
	case "watch":
		err = c.watch(args[1:])
	case "cancel":
		err = c.cancel(args[1:])
	case "list":
		err = c.api.GetJSON(ctx, "/v1/jobs", os.Stdout)
	case "stats":
		err = c.api.GetJSON(ctx, "/v1/stats", os.Stdout)
	default:
		log.Fatalf("unknown command %q", args[0])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

type ctl struct {
	ctx context.Context
	api *client.Client
}

func (c *ctl) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	benches := fs.String("bench", "median", "benchmark name(s), comma-separated")
	models := fs.String("model", "C", "fault model(s): none, A, B, B+, C (comma-separated)")
	vdds := fs.String("vdd", "0.7", "supply voltage(s) in V (comma-separated)")
	sigmas := fs.String("sigma", "0", "supply noise sigma(s) in V (comma-separated)")
	freqs := fs.String("freq", "", "explicit frequency list in MHz (comma-separated; overrides -lo/-hi/-step)")
	lo := fs.Float64("lo", 650, "sweep start in MHz")
	hi := fs.Float64("hi", 1100, "sweep end in MHz")
	step := fs.Float64("step", 25, "sweep step in MHz")
	trials := fs.Int("trials", 100, "Monte-Carlo trials per point")
	trialsMin := fs.Int("trials-min", 0, "adaptive mode: first batch size (with -trials-max)")
	trialsMax := fs.Int("trials-max", 0, "adaptive mode: trial budget per point")
	seed := fs.Int64("seed", 1, "random seed")
	mode := fs.String("mode", "auto", "trial path: auto or full (first-fault and scan are aliases with identical results)")
	priority := fs.String("priority", "interactive", "scheduling lane: interactive or batch")
	wait := fs.Bool("wait", false, "block until the job is terminal, then print the result")
	format := fs.String("format", "json", "result format with -wait: json or csv")
	outFile := fs.String("o", "", "write -wait result to this file (default stdout)")
	fs.Parse(args)

	spec := map[string]any{
		"benches": splitList(*benches),
		"models":  splitList(*models),
		"vdds":    floats("vdd", *vdds),
		"sigmas":  floats("sigma", *sigmas),
		"trials":  *trials, "trials_min": *trialsMin, "trials_max": *trialsMax,
		"seed": *seed, "mode": *mode, "priority": *priority,
	}
	if *freqs != "" {
		spec["freqs"] = floats("freq", *freqs)
	} else {
		spec["freq_lo"], spec["freq_hi"], spec["freq_step"] = *lo, *hi, *step
	}
	sub, err := c.api.Submit(c.ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s state=%s deduped=%v\n", sub.ID, sub.State, sub.Deduped)
	if !*wait {
		fmt.Println(sub.ID)
		return nil
	}
	st, err := c.api.Wait(c.ctx, sub.ID)
	if err != nil {
		return err
	}
	switch st.State {
	case "failed":
		return fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
	case "canceled":
		return fmt.Errorf("job %s canceled", sub.ID)
	}
	return c.fetchResult(sub.ID, *format, *outFile)
}

func (c *ctl) fetchResult(id, format, outFile string) (err error) {
	out := io.Writer(os.Stdout)
	if outFile != "" {
		var f *os.File
		if f, err = os.Create(outFile); err != nil {
			return err
		}
		// Propagate the close error through the named return: a failed
		// flush must not pass for a successful export.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		out = f
	}
	return c.api.Result(c.ctx, id, format, out)
}

func (c *ctl) status(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fisimctl status <job-id>")
	}
	return c.api.GetJSON(c.ctx, "/v1/jobs/"+args[0], os.Stdout)
}

func (c *ctl) result(args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	format := fs.String("format", "json", "json or csv")
	outFile := fs.String("o", "", "output file (default stdout)")
	if len(args) < 1 {
		return fmt.Errorf("usage: fisimctl result <job-id> [-format json|csv] [-o file]")
	}
	fs.Parse(args[1:])
	return c.fetchResult(args[0], *format, *outFile)
}

// watch prints the SSE progress stream line by line until the terminal
// "done" event. A dropped stream (daemon drain, connection reset) is
// reconnected under the client's backoff policy instead of exiting on
// the first read error; events are full snapshots, so a reconnect loses
// nothing and at worst repeats the latest line.
func (c *ctl) watch(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fisimctl watch <job-id>")
	}
	return c.api.Watch(c.ctx, args[0], func(event string, data []byte) {
		fmt.Printf("%s %s\n", event, data)
	})
}

func (c *ctl) cancel(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: fisimctl cancel <job-id>")
	}
	canceled, err := c.api.Cancel(c.ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("{\"canceled\": %v}\n", canceled)
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func floats(name, s string) []float64 {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			log.Fatalf("-%s: %v", name, err)
		}
		out = append(out, v)
	}
	return out
}
