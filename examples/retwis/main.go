// Retwis runs the §6.3.2 Twitter clone on Cloudburst in causal mode and
// demonstrates the consistency story: conversational threads stay
// intact (a timeline never shows a reply without its original tweet
// being available), because the reply's write causally depends on the
// parent it was replying to and the cache's causal cut carries that
// dependency to every reader.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	cloudburst "cloudburst"
	"cloudburst/internal/workload"
)

func main() {
	cfg := cloudburst.DefaultConfig()
	cfg.Mode = cloudburst.Causal
	cfg.VMs = 3
	cfg.AnnaNodes = 2
	cb := cloudburst.NewCluster(cfg)
	defer cb.Close()

	r := workload.DefaultRetwis()
	r.Users = 200
	r.Tweets = 800
	if err := r.Register(cb); err != nil {
		log.Fatal(err)
	}
	g := r.Generate(rand.New(rand.NewSource(7)))
	r.Preload(cb, g)
	fmt.Printf("seeded %d users (%d follows each), %d tweets (half replies)\n",
		r.Users, workload.FollowsPerUser, r.Tweets)

	cb.Run(func(cl *cloudburst.Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)

		// Alice (user 1) replies to a seed tweet; Bob (a follower)
		// immediately reads his timeline.
		parent := g.PostIDs[3]
		out, err := cl.Invoke("rt-post", []any{1, "replying to an old classic", parent}).Wait()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("user 1 posted reply %v (parent %s)\n", out, parent)

		// Run the paper's request mix and report anomaly counts.
		rng := rand.New(rand.NewSource(99))
		timelines, anomalies, posts := 0, 0, 0
		for i := 0; i < 300; i++ {
			res, err := r.Request(cl, rng, g)
			if err != nil {
				log.Fatal(err)
			}
			if res == nil {
				posts++
				continue
			}
			timelines++
			anomalies += res.Anomalies
		}
		fmt.Printf("served %d timelines and %d posts; replies rendered without their original: %d\n",
			timelines, posts, anomalies)
		fmt.Println("(run the Figure 11 bench to compare against LWW mode, where the rate is >60%)")

		// Follower counts come from the same six-function API.
		n, err := cloudburst.As[int](cl.Invoke("rt-followers", []any{0}))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("user 0 has %v followers\n", n)
	})
}
