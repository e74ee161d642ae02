// Command dvserve keeps a ΔV program converged over a live graph and
// serves reads while mutations stream in: the always-on counterpart of a
// one-shot dvrun. It loads a graph, converges the program once, then
// answers point reads from an immutable published version while POSTed
// edge mutations accumulate into batches that are repaired in place with
// delta recomputation (falling back to a from-scratch rerun when a batch
// is outside the repairable class).
//
// Usage:
//
//	dvserve [-mode dv|dvstar|memotable] (-program name | -file prog.dv)
//	        (-dataset name | -edges file [-directed] | -gen spec [-seed n])
//	        [-repr flat|compact|mmap]
//	        [-param k=v]... [-workers N] [-epsilon e] [-addr host:port]
//	        [-batch-interval d] [-max-batch N] [-max-pending N]
//	        [-chain-dir dir] [-repair-budget f]
//
// Graph sources, generator specs and -repr behave exactly as in dvrun.
// Every run the server performs uses the ScanAll scheduler with message
// combining on; dvrun keeps the -queue and -combine ablations. The HTTP
// API (see internal/serve):
//
//	GET  /healthz          liveness
//	GET  /stats            counters + published version info
//	GET  /value/{v}        one vertex's value (?field= selects which)
//	GET  /neighbors/{v}    out-neighbors (+weights when weighted)
//	POST /mutate           deltaio text (add/del/set/addv lines)
//	POST /flush            apply the pending batch now
//
// Mutations are batched: every -batch-interval (default 3s), or as soon
// as -max-batch entries are pending, the log is collapsed into one
// graph delta and repaired. -max-pending bounds the log; beyond it
// POST /mutate returns 503 until a batch drains. Vertex-program panics
// are quarantined to the panicking vertex, so a poisoned vertex cannot
// take the daemon down.
//
// -chain-dir persists every published version to a checkpoint chain: a
// full base snapshot at boot, then per batch an atomic (mutation log +
// incremental snapshot record) commit. Restarting dvserve with the same
// -chain-dir and the same graph flags replays the chain and resumes
// serving at the epoch the previous process reached — no superstep is
// re-executed and no full vertex state is reread (the startup log says
// "chain: seeded epoch N"). The chain stores mutations, not the boot
// graph, so the graph flags must rebuild the graph the chain was started
// from. -repair-budget bounds each repair to ceil(f × S) body supersteps
// (S = supersteps of the fixpoint being repaired); past that the repair
// has lost to the from-scratch rerun it was supposed to undercut, so the
// batch falls back (counted as budget_fallback_batches in /stats). 0, or
// a bound at or past the superstep limit (Inf), disables it; a negative or
// NaN f is refused.
//
// On startup dvserve prints the program's static repairability matrix
// (one "repairability MODE: class=verdict ..." line — which mutation
// classes the batcher can repair in place and which are admitted straight
// to the from-scratch path; see dvc vet's repairability analyzer for the
// reasons), then "dvserve: listening on http://ADDR" once the socket is
// bound; SIGINT shuts down gracefully.
//
// Examples:
//
//	dvserve -program sssp -gen grid:50:50 -param src=0 -addr :7473
//	curl localhost:7473/value/120
//	printf 'add 3 120 1\n' | curl -s --data-binary @- localhost:7473/mutate
//	curl -s -X POST localhost:7473/flush
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

// flags holds the parsed flag values: the front end dvserve shares with
// dvrun, and dvserve's own. registerFlags binds them onto a FlagSet so
// tests can enumerate the registered flags and check them against the doc
// comment above.
type flags struct {
	*cli.Flags
	addr                 string
	batchInterval        time.Duration
	maxBatch, maxPending int
	chainDir             string
	repairBudget         float64
}

func registerFlags(fs *flag.FlagSet) *flags {
	v := &flags{Flags: cli.Register(fs)}
	fs.StringVar(&v.addr, "addr", "127.0.0.1:7473", "HTTP listen address")
	fs.DurationVar(&v.batchInterval, "batch-interval", 3*time.Second, "periodic mutation-batch repair cadence (0 = only -max-batch / POST /flush)")
	fs.IntVar(&v.maxBatch, "max-batch", 0, "repair as soon as this many mutations are pending (0 = max-pending)")
	fs.IntVar(&v.maxPending, "max-pending", 65536, "bound on the pending mutation log; POST /mutate returns 503 beyond it")
	fs.StringVar(&v.chainDir, "chain-dir", "", "checkpoint-chain directory: persist every published version and resume from it on restart")
	fs.Float64Var(&v.repairBudget, "repair-budget", 0, "abandon a repair past ceil(f × supersteps) body supersteps and recompute from scratch (0 = unbounded)")
	return v
}

func main() {
	vals := registerFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := run(ctx, vals, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvserve:", err)
		os.Exit(1)
	}
}

// run builds the server and serves until ctx is cancelled. The listening
// line is written to out once the socket is bound.
func run(ctx context.Context, v *flags, out io.Writer) error {
	prog, _, err := v.Compile()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, prog.Repairability())
	g, err := v.Graph.Load()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: n=%d arcs=%d repr=%s bytes=%d\n",
		g.NumVertices(), g.NumArcs(), g.Repr(), g.ArcBytes())

	srv, err := serve.New(ctx, serve.Config{
		Prog:          prog,
		Graph:         g,
		Params:        v.Params,
		Workers:       v.Workers,
		Combine:       true,
		Quarantine:    true,
		MaxPending:    v.maxPending,
		MaxBatch:      v.maxBatch,
		BatchInterval: v.batchInterval,
		ChainDir:      v.chainDir,
		RepairBudget:  v.repairBudget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		g.Close()
		return err
	}
	defer srv.Close()
	st := srv.Stats()
	fmt.Fprintf(out, "converged: superstep=%d fingerprint=%s fields=%v\n",
		st.Superstep, st.Fingerprint, st.Fields)

	ln, err := net.Listen("tcp", v.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(out, "dvserve: listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}
