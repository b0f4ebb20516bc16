// Command cb-cluster boots a simulated Cloudburst deployment, runs a
// short scripted scenario against it (registration, composition, state,
// failure, scaling), and narrates what the cluster is doing — a guided
// tour of the architecture in §4 of the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	cloudburst "cloudburst"
	"cloudburst/internal/core"
	"cloudburst/internal/trace"
)

func main() {
	vms := flag.Int("vms", 3, "initial function-execution VMs")
	mode := flag.String("mode", "causal", "consistency mode: lww|dsrr (rr)|sk|mk|dsc (causal)|txn")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	cfg := cloudburst.DefaultConfig()
	cfg.VMs = *vms
	cfg.Seed = *seed
	cfg.AnnaNodes = 3
	cfg.Replication = 2
	cfg.VMSpinUp = 30 * time.Second // keep the restart demo brisk
	cfg.Trace = trace.New()         // CPU-side span collector; the demo prints one tree
	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Mode = m

	fmt.Printf("booting: %d VMs x %d threads, %d Anna nodes (replication %d), %s consistency\n",
		cfg.VMs, cfg.ThreadsPerVM, cfg.AnnaNodes, cfg.Replication, cfg.Mode)
	c := cloudburst.NewCluster(cfg)
	defer c.Close()

	must(c.RegisterFunction("greet", func(ctx *cloudburst.Ctx, args []any) (any, error) {
		return fmt.Sprintf("hello, %v (served by %s)", args[0], ctx.ID()), nil
	}))
	must(c.RegisterFunction("inc", func(ctx *cloudburst.Ctx, args []any) (any, error) {
		return args[0].(int) + 1, nil
	}))
	must(c.RegisterFunction("sq", func(ctx *cloudburst.Ctx, args []any) (any, error) {
		return args[0].(int) * args[0].(int), nil
	}))
	must(c.RegisterDAG(cloudburst.LinearDAG("pipeline", "inc", "sq"), 2))

	c.Run(func(cl *cloudburst.Client) {
		cl.Sleep(3 * time.Second)

		fmt.Println("\n-- single function (Table 1 path) --")
		start := cl.Now()
		out, err := cl.Invoke("greet", []any{"world"}).Wait()
		must(err)
		fmt.Printf("greet('world') = %v  [%.2fms virtual]\n", out, float64(cl.Now()-start)/1e6)

		fmt.Println("\n-- stateful put/get through Anna --")
		must(cl.Put("key", 2))
		v, _, err := cl.Get("key")
		must(err)
		fmt.Printf("get(key) = %v\n", v)

		fmt.Println("\n-- DAG composition sq(inc(key=2)) --")
		start = cl.Now()
		out, err = cl.InvokeDAG("pipeline", map[string][]any{"inc": {cloudburst.Ref("key")}}).Wait()
		must(err)
		fmt.Printf("pipeline(ref key) = %v in %.2fms virtual\n", out, float64(cl.Now()-start)/1e6)

		fmt.Println("\n-- async futures: push-based and KVS-stored --")
		fut := cl.Invoke("sq", []any{12}) // result pushed to this client
		stored := cl.Invoke("sq", []any{5}, cloudburst.WithStoreInKVS())
		out, err = fut.Wait()
		must(err)
		fmt.Printf("future sq(12) = %v\n", out)
		out, err = stored.Wait()
		must(err)
		fmt.Printf("stored future sq(5) = %v (also readable at key %q)\n", out, stored.Key)
	})

	fmt.Println("\n-- tracing: where did the DAG request's time go? --")
	// Every request above was traced on the virtual clock (zero wire
	// perturbation: the schedule is byte-identical with tracing off).
	// Print the retained span tree of the last finished DAG request.
	for _, tr := range c.Trace().Done() {
		if tr.Root().Name == "invoke-dag" {
			fmt.Print(trace.TreeString(tr))
		}
	}
	if s, ok := c.Trace().Quantile(0.99); ok {
		cat, share := s.Dominant()
		fmt.Printf("p99 request %s: wall %.2fms, %.0f%% attributed, dominated by %s (%.0f%%)\n",
			s.ReqID, float64(s.Wall)/1e6, 100*s.Attributed(), cat, 100*share)
	}

	fmt.Println("\n-- failure injection: killing a VM, then invoking (§4.5) --")
	victims := c.Internal().VMs()
	c.Run(func(cl *cloudburst.Client) {
		cl.Timeout = 3 * time.Minute
		// Kill a VM abruptly: the schedulers still believe its executors
		// are alive (metrics go stale only after ~10s), so a request
		// routed there vanishes and must be recovered.
		c.Internal().KillVM(victims[0].Name)
		fmt.Printf("killed %s (its executors now drop every message)\n", victims[0].Name)
		start := cl.Now()
		out, err := cl.InvokeDAG("pipeline", map[string][]any{"inc": {41}}).Wait()
		elapsed := time.Duration(cl.Now() - start)
		if err != nil {
			// Also legitimate §4.5 behaviour: after its retries run out the
			// scheduler returns the error to the client, who retries.
			fmt.Printf("first attempt failed after %.1fs (%v); client retries...\n", elapsed.Seconds(), err)
			start = cl.Now()
			out, err = cl.InvokeDAG("pipeline", map[string][]any{"inc": {41}}).Wait()
			must(err)
			elapsed = time.Duration(cl.Now() - start)
		}
		note := "routed around the dead VM"
		if elapsed > 5*time.Second {
			note = "timed out on the dead VM and was re-executed (§4.5)"
		}
		fmt.Printf("pipeline(41) = %v after %.1fs virtual (%s)\n", out, elapsed.Seconds(), note)

		// Recovery half of the lifecycle: a replacement instance spins
		// up, re-registers through the metrics path, and serves again.
		replacement := c.Internal().RestartVM(victims[0].Name, false)
		fmt.Printf("restarting %s as %s (EC2-like spin-up)...\n", victims[0].Name, replacement)
		cl.Sleep(cfg.VMSpinUp + 10*time.Second)
		fmt.Printf("replacement joined: %d VMs, %d executor threads live again\n",
			c.Internal().VMCount(), c.Internal().ThreadCount())
	})

	fmt.Printf("\ncluster state: %d VMs, %d executor threads, %d keys in Anna\n",
		c.Internal().VMCount(), c.Internal().ThreadCount(), c.Internal().KV.TotalKeys())
	fmt.Printf("virtual time elapsed: %v; real time is whatever your terminal says it was.\n", c.Now())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
