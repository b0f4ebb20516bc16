// Predserve runs the §6.3.1 prediction-serving pipeline: a three-stage
// DAG (resize → model → combine) over an 8MB model stored in Anna. The
// scheduler's locality policy keeps routing the model stage to executors
// whose co-located cache already holds the weights, so steady-state
// latency approaches the pure-compute floor.
package main

import (
	"fmt"
	"log"
	"time"

	cloudburst "cloudburst"
	"cloudburst/internal/workload"
)

func main() {
	cfg := cloudburst.DefaultConfig()
	cfg.VMs = 1 // 3 workers, as in the paper's Figure 9 setup
	cb := cloudburst.NewCluster(cfg)
	defer cb.Close()

	p := workload.DefaultPredServe()
	p.Preload(cb) // store the 8MB weights blob in Anna
	if err := p.Register(cb, 1); err != nil {
		log.Fatal(err)
	}

	cb.Run(func(cl *cloudburst.Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)

		fmt.Printf("pipeline compute floor: %v (resize %v + model %v + combine %v)\n",
			p.ComputeTotal(), workload.ResizeTime, p.ModelTime, workload.CombineTime)

		for i := 0; i < 5; i++ {
			start := cl.Now()
			class, err := p.Predict(cl)
			if err != nil {
				log.Fatal(err)
			}
			label := "?"
			if class == 1 {
				label = "tabby cat"
			}
			fmt.Printf("request %d: class=%d (%s) in %v virtual%s\n",
				i, class, label, (cl.Now() - start).Round(time.Millisecond),
				coldNote(i))
		}
	})
}

func coldNote(i int) string {
	if i == 0 {
		return "  (first request pulls the 8MB model into the cache)"
	}
	return ""
}
