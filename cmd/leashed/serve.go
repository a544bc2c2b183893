package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sgd"
)

// serveOpts holds `leashed serve`'s parsed flags: the training run's Config,
// the server's Config, and the flags that pick the address, model and data.
type serveOpts struct {
	train             sgd.Config
	server            serve.Config
	addr, arch, mnist string
	samples           int
}

// serveFlags declares `leashed serve`'s flags, parsing into o. The training
// run is LSH_ps∞ on one chain (S = 1, the setting for dense steps; see
// docs/tuning.md) and runs to its budget: convergence does not stop serving.
func serveFlags(o *serveOpts) *flag.FlagSet {
	c, sc := &o.train, &o.server
	*c = sgd.Config{Algo: sgd.Leashed, Persistence: sgd.PersistenceInf}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", "localhost:8321", "HTTP listen address")
	fs.StringVar(&o.arch, "arch", "mlp", "mlp, cnn, paper-mlp, paper-cnn")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0), "training worker count m")
	fs.Float64Var(&c.Eta, "eta", 0.05, "step size")
	fs.IntVar(&c.BatchSize, "batch", 16, "mini-batch size")
	fs.DurationVar(&c.MaxTime, "budget", 60*time.Second, "training time budget (serving continues on the final parameters)")
	fs.IntVar(&sc.MaxBatch, "max-batch", 0, "max coalesced predict batch size (0 = default)")
	fs.DurationVar(&sc.MaxDelay, "max-delay", 0, "max request coalescing delay (0 = default, negative = disable)")
	fs.StringVar(&sc.Store, "store", serve.StoreLeased, "parameter read path: leased (per-chain seqlock leases) or readfront (RCU snapshot store)")
	fs.DurationVar(&sc.Leash.MaxAge, "leash-age", 0, "readfront: max wall time a served snapshot may lag (0 = default 2ms)")
	fs.Int64Var(&sc.Leash.MaxUpdates, "leash-updates", 0, "readfront: max published updates a served snapshot may lag (0 = age bound only)")
	fs.IntVar(&o.samples, "samples", 1024, "dataset size")
	fs.Uint64Var(&c.Seed, "seed", 1, "seed")
	fs.StringVar(&o.mnist, "mnist", "", "real MNIST IDX directory (optional)")
	return fs
}

var serveNets = map[string]func() *nn.Network{
	"mlp": func() *nn.Network { return nn.NewSmallMLP(28*28, 10) },
	"cnn": nn.NewSmallCNN, "paper-mlp": nn.NewPaperMLP, "paper-cnn": nn.NewPaperCNN,
}

// runServe implements `leashed serve`: an online inference tier over a live
// training run. It starts a Leashed-SGD run, stands an HTTP prediction server
// on top of the SAME ParamStore the workers publish into — every answer is
// computed from a zero-copy leased view and labeled with its consistency
// class — and keeps serving from the immutable final parameters after the
// training budget expires. The process runs until interrupted.
func runServe(args []string) {
	o := &serveOpts{}
	if err := serveFlags(o).Parse(args); err != nil {
		os.Exit(2)
	}
	cfg := o.train
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	newNet, ok := serveNets[o.arch]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", o.arch)
		os.Exit(2)
	}
	net := newNet()

	ds, real := data.LoadOrGenerate(o.mnist, o.samples, cfg.Seed)
	run, err := sgd.Start(cfg, net, ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := serve.New(net, run, o.server)
	if err != nil {
		run.Stop()
		run.Wait()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	dataset := "synthetic MNIST"
	if real {
		dataset = "real MNIST"
	}
	fmt.Printf("training %s on %s: m=%d, budget %v\n",
		net.Arch(), dataset, cfg.Workers, cfg.MaxTime)
	fmt.Printf("serving on http://%s  store=%s  (POST /predict, GET /stats, GET /healthz)\n", o.addr, o.server.Store)

	go func() {
		res := run.Wait()
		fmt.Printf("training done: %s, loss %.4f -> %.4f, %d updates; now serving the final parameters\n",
			res.Outcome, res.InitialLoss, res.FinalLoss, res.TotalUpdates)
	}()

	if err := http.ListenAndServe(o.addr, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
