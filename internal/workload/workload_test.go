package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
)

func TestKeyspaceZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ks := NewKeyspace(rng, "k", 10_000, 1.0)
	counts := map[int]int{}
	for i := 0; i < 20_000; i++ {
		counts[ks.SampleIndex()]++
	}
	if counts[0] < 1000 {
		t.Fatalf("zipf head not hot: key 0 drawn %d/20000", counts[0])
	}
	if ks.Key(42) != "k-0000042" {
		t.Fatalf("key name = %q", ks.Key(42))
	}
}

// TestKeyspaceKeyMatchesSprintf holds Key byte-equal to the fmt form it
// replaced, on both sides of the seven-digit pad.
func TestKeyspaceKeyMatchesSprintf(t *testing.T) {
	for _, prefix := range []string{"k", "", "a-long-keyspace-prefix-past-the-stack-buffer-of-key"} {
		ks := &Keyspace{Prefix: prefix}
		for _, i := range []int{0, 9, 10, 9_999_999, 10_000_000, 12_345_678} {
			if got, want := ks.Key(i), fmt.Sprintf("%s-%07d", prefix, i); got != want {
				t.Fatalf("Key(%d) = %q, want %q", i, got, want)
			}
		}
	}
}

// TestKeyspaceKeyAllocations pins Key at one allocation, the string.
func TestKeyspaceKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	ks := &Keyspace{Prefix: "k"}
	i := 0
	if got := testing.AllocsPerRun(100, func() { i++; _ = ks.Key(i) }); got != 1 {
		t.Fatalf("Key allocates %v times, want 1", got)
	}
}

func TestArraySumAccounting(t *testing.T) {
	a := ArraySum{NumArrays: 10, Elems: 1000}
	if a.TotalBytes() != 80_000 {
		t.Fatalf("total = %d", a.TotalBytes())
	}
	if len(a.Keys(0)) != 10 || a.Keys(0)[0] == a.Keys(1)[0] {
		t.Fatal("key sets collide across sets")
	}
	if SumCompute(80<<20) < 20*time.Millisecond {
		t.Fatal("80MB compute cost unrealistically low")
	}
}

// oracleGenerate is Retwis.Generate as it was when it built each
// timeline by prepending every delivered post, capped at timelineCap.
func oracleGenerate(r Retwis, rng *rand.Rand) *Graph {
	g := &Graph{
		Following: make([][]int, r.Users),
		Followers: make([][]int, r.Users),
		PostOf:    make(map[string]map[string]string),
		Timelines: make([][]string, r.Users),
	}
	zipf := rand.NewZipf(rng, 1.5, 1, uint64(r.Users-1))
	for u := 0; u < r.Users; u++ {
		seen := map[int]bool{u: true}
		for len(g.Following[u]) < FollowsPerUser && len(seen) < r.Users {
			v := int(zipf.Uint64())
			if seen[v] {
				continue
			}
			seen[v] = true
			g.Following[u] = append(g.Following[u], v)
			g.Followers[v] = append(g.Followers[v], u)
		}
	}
	for i := 0; i < r.Tweets; i++ {
		author := rng.Intn(r.Users)
		id := fmt.Sprintf("seed-%d", i)
		reply := ""
		if i > 0 && i%2 == 1 {
			reply = g.PostIDs[rng.Intn(len(g.PostIDs))]
		}
		g.PostIDs = append(g.PostIDs, id)
		g.PostOf[id] = map[string]string{"author": fmt.Sprint(author), "text": fmt.Sprintf("tweet %d", i), "reply": reply}
		g.Timelines[author] = prepend(g.Timelines[author], id, timelineCap)
		for _, f := range g.Followers[author] {
			g.Timelines[f] = prepend(g.Timelines[f], id, timelineCap)
		}
	}
	return g
}

// TestRetwisGenerateMatchesPrependOracle: the generated graph, timelines
// included, is the one the prepending generator built, at sizes where
// every timeline stays nil (no tweets), stays under the cap, or passes it
// (with 50 follows per user, a graph has little of a mix).
func TestRetwisGenerateMatchesPrependOracle(t *testing.T) {
	for _, size := range []struct{ users, tweets int }{{5, 0}, {300, 100}, {200, 500}, {100, 80}} {
		for seed := int64(1); seed <= 3; seed++ {
			r := DefaultRetwis()
			r.Users, r.Tweets = size.users, size.tweets
			got := r.Generate(rand.New(rand.NewSource(seed)))
			want := oracleGenerate(r, rand.New(rand.NewSource(seed)))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d users, %d tweets, seed %d: the graph differs from the prepending generator's", size.users, size.tweets, seed)
			}
		}
	}
}

func TestRetwisGraphInvariants(t *testing.T) {
	r := DefaultRetwis()
	r.Users = 200
	r.Tweets = 500
	g := r.Generate(rand.New(rand.NewSource(11)))
	if len(g.Following) != 200 || len(g.PostIDs) != 500 {
		t.Fatalf("graph sizes: %d users, %d posts", len(g.Following), len(g.PostIDs))
	}
	// Follower/following edges are symmetric.
	for u, fs := range g.Following {
		if len(fs) != FollowsPerUser {
			t.Fatalf("user %d follows %d, want %d", u, len(fs), FollowsPerUser)
		}
		for _, v := range fs {
			found := false
			for _, back := range g.Followers[v] {
				if back == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d→%d not mirrored", u, v)
			}
		}
	}
	// Replies reference existing earlier posts; about half are replies.
	replies := 0
	seen := map[string]bool{}
	for _, id := range g.PostIDs {
		if parent := g.PostOf[id]["reply"]; parent != "" {
			replies++
			if !seen[parent] {
				t.Fatalf("reply %s references later/unknown post %s", id, parent)
			}
		}
		seen[id] = true
	}
	if replies < 200 || replies > 300 {
		t.Fatalf("replies = %d of 500", replies)
	}
	// Timelines are capped and only contain real posts.
	for u, tl := range g.Timelines {
		if len(tl) > timelineCap {
			t.Fatalf("user %d timeline over cap: %d", u, len(tl))
		}
	}
}

func TestRetwisEndToEndCausal(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.Mode = cb.Causal
	cfg.VMs = 2
	cfg.AnnaNodes = 2
	c := cb.NewCluster(cfg)
	defer c.Close()
	r := DefaultRetwis()
	r.Users = 50
	r.Tweets = 100
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	g := r.Generate(rand.New(rand.NewSource(5)))
	r.Preload(c, g)
	c.Run(func(cl *cb.Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)
		// Post a reply and read a few timelines.
		out, err := cl.Invoke("rt-post", []any{1, "hello", g.PostIDs[0]}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(string) == "" {
			t.Fatal("empty post id")
		}
		rng := rand.New(rand.NewSource(6))
		sawPosts := false
		for i := 0; i < 30; i++ {
			res, err := r.Request(cl, rng, g)
			if err != nil {
				t.Fatal(err)
			}
			if res != nil && res.Posts > 0 {
				sawPosts = true
				if res.Anomalies > 0 {
					t.Fatalf("causal mode rendered a reply without its parent: %+v", res)
				}
			}
		}
		if !sawPosts {
			t.Fatal("no timeline ever materialized posts")
		}
		// Follower count matches the generated graph.
		n, err := cl.Invoke("rt-followers", []any{3}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if n.(int) != len(g.Followers[3]) {
			t.Fatalf("followers = %v, want %d", n, len(g.Followers[3]))
		}
	})
}

func TestConsistencyWorkloadRequests(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 2
	c := cb.NewCluster(cfg)
	defer c.Close()
	rng := rand.New(rand.NewSource(21))
	w, err := SetupConsistency(c, rng, 500, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *cb.Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)
		for i := 0; i < 20; i++ {
			depth, hops, err := w.Request(cl)
			if err != nil {
				t.Fatal(err)
			}
			if depth < 2 || depth > 5 {
				t.Fatalf("depth = %d", depth)
			}
			if hops != depth {
				t.Fatalf("hops %d != depth %d for a linear DAG", hops, depth)
			}
		}
	})
}

func TestPredServePipeline(t *testing.T) {
	cfg := cb.DefaultConfig()
	cfg.VMs = 1
	c := cb.NewCluster(cfg)
	defer c.Close()
	p := DefaultPredServe()
	p.Preload(c)
	if err := p.Register(c, 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *cb.Client) {
		cl.Timeout = time.Minute
		cl.Sleep(3 * time.Second)
		start := cl.Now()
		class, err := p.Predict(cl)
		if err != nil {
			t.Fatal(err)
		}
		if class != 1 { // argmax of the fixed score vector
			t.Fatalf("class = %d", class)
		}
		if elapsed := cl.Now() - start; elapsed < p.ComputeTotal() {
			t.Fatalf("prediction faster than its compute floor: %v < %v", elapsed, p.ComputeTotal())
		}
	})
}

func TestComposePipeline(t *testing.T) {
	c := cb.NewCluster(cb.DefaultConfig())
	defer c.Close()
	if err := ComposePipeline(c, 1); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *cb.Client) {
		cl.Sleep(3 * time.Second)
		out, err := cl.InvokeDAG("composition", map[string][]any{"increment": {4}}).Wait()
		if err != nil || out.(int) != 25 {
			t.Fatalf("square(increment(4)) = %v, %v", out, err)
		}
	})
}

// TestRetwisKeysMatchFmt holds the concatenated key builders byte-equal
// to the fmt forms they replaced.
func TestRetwisKeysMatchFmt(t *testing.T) {
	for u := 0; u <= 10000; u++ {
		for _, field := range []string{"following", "followers", "posts"} {
			if got, want := userKey(u, field), fmt.Sprintf("rt/user/%d/%s", u, field); got != want {
				t.Fatalf("userKey(%d, %q) = %q, want %q", u, field, got, want)
			}
		}
		if got, want := timelineKey(u), fmt.Sprintf("rt/timeline/%d", u); got != want {
			t.Fatalf("timelineKey(%d) = %q, want %q", u, got, want)
		}
	}
}

// memRedis is an in-memory RedisOps store.
type memRedis map[string][]byte

func (m memRedis) Get(key string) ([]byte, bool, error) { v, ok := m[key]; return v, ok, nil }
func (m memRedis) Put(key string, val []byte) error     { m[key] = val; return nil }
func (m memRedis) MGet(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out, nil
}

// TestRetwisMalformedFollowerIsAnError: a follower id that is not a
// number fails a post, on Cloudburst and on Redis, instead of delivering
// the tweet to user 0's timeline.
func TestRetwisMalformedFollowerIsAnError(t *testing.T) {
	followers := []string{"2", "x3"}
	r := DefaultRetwis()

	redis := memRedis{userKey(1, "followers"): codec.MustEncode(followers)}
	ro := RedisOps{R: r, Redis: redis}
	if err := ro.Post(1, "p1", "hi", "", 0); err == nil || !strings.Contains(err.Error(), "follower id") {
		t.Fatalf("Redis post with follower %q: err = %v, want a follower id error", followers[1], err)
	}
	if _, ok := redis[timelineKey(0)]; ok {
		t.Fatal("Redis post delivered to user 0's timeline")
	}

	cfg := cb.DefaultConfig()
	cfg.VMs = 1
	c := cb.NewCluster(cfg)
	defer c.Close()
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	c.Run(func(cl *cb.Client) {
		if err := cl.Put(userKey(1, "followers"), followers); err != nil {
			t.Fatal(err)
		}
		cl.Sleep(3 * time.Second)
		_, err := cl.Invoke("rt-post", []any{1, "hi", ""}).Wait()
		if err == nil || !strings.Contains(err.Error(), "follower id") {
			t.Fatalf("post with follower %q: err = %v, want a follower id error", followers[1], err)
		}
		if _, found, _ := cl.Get(timelineKey(0)); found {
			t.Fatal("post delivered to user 0's timeline")
		}
	})
}

// TestNonReplyPostAllocations pins what one rt-post that replies to
// nothing allocates on a warm causal cluster: a post declares a causal
// dependency only on the tweet it replies to, so a post that replies to
// nothing builds no dependency set. The author has no followers, so the
// post writes three keys (the post, the author's posts list and the
// author's timeline). A new allocation per post fails it; lower the
// number when one goes.
func TestNonReplyPostAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	cfg := cb.DefaultConfig()
	cfg.Mode = cb.Causal
	cfg.VMs = 1
	c := cb.NewCluster(cfg)
	defer c.Close()
	r := DefaultRetwis()
	r.Users, r.Tweets = 2, 0
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	g := &Graph{Following: make([][]int, 2), Followers: make([][]int, 2), Timelines: make([][]string, 2)}
	r.Preload(c, g)
	calls := 0
	run := func() {
		c.Run(func(cl *cb.Client) {
			cl.Timeout = time.Minute
			for i := 0; i < calls; i++ {
				if _, err := cl.Invoke("rt-post", []any{1, "hello", ""}).Wait(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	calls = 50
	run() // warm the cache, the decode cache, the kernel's processes and the pools
	// The difference between 100 and 50 posts per Run is 50 posts' cost,
	// without what one Run and its client cost.
	base := testing.AllocsPerRun(5, run)
	calls = 100
	got := (testing.AllocsPerRun(5, run) - base) / 50
	// Measured; the fraction is the cluster's background ticks, and half
	// an allocation of slack absorbs a pooled buffer a collection emptied.
	const want = 50.26
	t.Logf("%.2f allocations per non-reply post", got)
	if got > want+0.5 {
		t.Fatalf("%.2f allocations per non-reply post, want at most %.2f", got, want)
	}
}
