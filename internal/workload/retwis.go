package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
	"cloudburst/internal/lattice"
)

// Retwis is the §6.3.2 web-serving workload: the standard Redis Twitter
// clone ported to Cloudburst as six functions, plus a serverful
// Redis-backed variant for comparison. Conversational threads exercise
// causal consistency: reading a reply before its parent tweet is the
// anomaly the paper reports causal mode preventing on >60% of timeline
// requests.
type Retwis struct {
	Users  int
	Tweets int // prepopulated tweets; half are replies
}

// FollowsPerUser is how many users each user follows, drawn Zipf(1.5)
// by popularity.
const FollowsPerUser = 50

const (
	timelineCap = 50 // posts a timeline keeps
	fetchPosts  = 10 // posts materialized per timeline request
)

// DefaultRetwis returns the paper's dataset shape.
func DefaultRetwis() Retwis {
	return Retwis{Users: 1000, Tweets: 5000}
}

func userKey(u int, field string) string { return "rt/user/" + strconv.Itoa(u) + "/" + field }
func timelineKey(u int) string           { return "rt/timeline/" + strconv.Itoa(u) }
func postKey(id string) string           { return "rt/post/" + id }

// TimelineResult is what rt-timeline returns.
type TimelineResult struct {
	Posts     int
	Anomalies int // replies whose parent tweet was not readable
}

func init() {
	codec.RegisterStruct[TimelineResult, *TimelineResult]("workload.TimelineResult")
}

// AppendWire implements codec.Struct: rt-timeline returns one of these
// per timeline request, so the result encodes reflection-free.
func (t TimelineResult) AppendWire(dst []byte) []byte {
	dst = codec.AppendI64(dst, int64(t.Posts))
	return codec.AppendI64(dst, int64(t.Anomalies))
}

// DecodeWire implements codec.Struct.
func (t *TimelineResult) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	t.Posts = int(r.I64())
	t.Anomalies = int(r.I64())
	return r.Done()
}

// Register installs the six Cloudburst functions (the paper's port
// changed 44 lines of retwis-py; this is the same decomposition).
func (r Retwis) Register(c *cb.Cluster) error {
	fns := map[string]cb.Function{
		"rt-create-user": r.fnCreateUser,
		"rt-follow":      r.fnFollow,
		"rt-post":        r.fnPost,
		"rt-timeline":    r.fnTimeline,
		"rt-user-posts":  r.fnUserPosts,
		"rt-followers":   r.fnFollowers,
	}
	for _, name := range []string{"rt-create-user", "rt-follow", "rt-post", "rt-timeline", "rt-user-posts", "rt-followers"} {
		if err := c.RegisterFunction(name, fns[name]); err != nil {
			return err
		}
	}
	return nil
}

// fnCreateUser initializes a user's keys. Args: user id (int).
func (r Retwis) fnCreateUser(ctx *cb.Ctx, args []any) (any, error) {
	u := args[0].(int)
	for _, field := range []string{"following", "followers", "posts"} {
		if err := ctx.Put(userKey(u, field), []string{}); err != nil {
			return nil, err
		}
	}
	return u, ctx.Put(timelineKey(u), []string{})
}

// fnFollow adds follower→followee edges. Args: follower, followee.
func (r Retwis) fnFollow(ctx *cb.Ctx, args []any) (any, error) {
	follower, followee := args[0].(int), args[1].(int)
	if err := appendString(ctx, userKey(follower, "following"), fmt.Sprint(followee), 0); err != nil {
		return nil, err
	}
	return nil, appendString(ctx, userKey(followee, "followers"), fmt.Sprint(follower), 0)
}

// fnPost publishes a tweet and fans it out to followers' timelines.
// Args: author (int), text (string), replyTo (string post id or "").
func (r Retwis) fnPost(ctx *cb.Ctx, args []any) (any, error) {
	author := args[0].(int)
	text := args[1].(string)
	replyTo := args[2].(string)
	var parent []string
	if replyTo != "" {
		// Reading the parent before writing the reply creates the
		// causal dependency parent → reply that the causal modes
		// preserve end to end.
		if _, _, err := ctx.Get(postKey(replyTo)); err != nil {
			return nil, err
		}
		parent = []string{postKey(replyTo)}
	}
	id := ctx.ID()
	post := map[string]string{"author": fmt.Sprint(author), "text": text, "reply": replyTo}
	// Explicit causality (§7): a reply depends on the tweet it replies
	// to, and a tweet that replies to nothing on nothing; each timeline
	// delivery depends on the tweet it delivers. Depending on the whole
	// session read set would make every timeline transitively depend on
	// every other timeline the fan-out loop touched.
	if err := ctx.PutWithDeps(postKey(id), post, parent...); err != nil {
		return nil, err
	}
	if err := appendStringDeps(ctx, userKey(author, "posts"), id, 0, postKey(id)); err != nil {
		return nil, err
	}
	// Fan out to followers' timelines (and the author's own).
	followers, err := readStrings(ctx, userKey(author, "followers"))
	if err != nil {
		return nil, err
	}
	if err := prependString(ctx, timelineKey(author), id, timelineCap); err != nil {
		return nil, err
	}
	for _, f := range followers {
		fu, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("retwis: follower id: %w", err)
		}
		if err := prependString(ctx, timelineKey(fu), id, timelineCap); err != nil {
			return nil, err
		}
	}
	return id, nil
}

// fnTimeline materializes a user's timeline and counts causal anomalies:
// replies whose parent tweet cannot be read. The timeline list is the
// union of all concurrent sibling versions — in causal mode that
// recovers updates a concurrent fan-out write would otherwise hide;
// under LWW there is only ever one (possibly lossy) version. Args: user
// (int).
func (r Retwis) fnTimeline(ctx *cb.Ctx, args []any) (any, error) {
	u := args[0].(int)
	versions, err := ctx.GetSiblings(timelineKey(u))
	if err != nil {
		return nil, err
	}
	var ids []string
	seen := map[string]bool{}
	for _, v := range versions {
		list, ok := v.([]string)
		if !ok {
			continue
		}
		for _, id := range list {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	if len(ids) > fetchPosts {
		ids = ids[:fetchPosts]
	}
	res := TimelineResult{}
	for _, id := range ids {
		v, found, err := ctx.Get(postKey(id))
		if err != nil {
			return nil, err
		}
		if !found {
			continue
		}
		res.Posts++
		post, ok := v.(map[string]string)
		if !ok {
			continue
		}
		if parent := post["reply"]; parent != "" {
			// The anomaly of §6.3.2: the timeline shows a reply but
			// the original tweet is not available alongside it. In the
			// causal modes the cut maintenance has pulled the parent
			// into the local cache with the reply; under LWW it
			// usually is not there.
			if !ctx.CachedLocally(postKey(parent)) {
				res.Anomalies++
			}
			// Render the original (fills the cache either way).
			if _, _, err := ctx.Get(postKey(parent)); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// fnUserPosts returns how many of a user's recent posts are readable.
// Args: user (int).
func (r Retwis) fnUserPosts(ctx *cb.Ctx, args []any) (any, error) {
	u := args[0].(int)
	ids, err := readStrings(ctx, userKey(u, "posts"))
	if err != nil {
		return nil, err
	}
	if len(ids) > fetchPosts {
		ids = ids[len(ids)-fetchPosts:]
	}
	n := 0
	for _, id := range ids {
		if _, found, err := ctx.Get(postKey(id)); err != nil {
			return nil, err
		} else if found {
			n++
		}
	}
	return n, nil
}

// fnFollowers returns a user's follower count. Args: user (int).
func (r Retwis) fnFollowers(ctx *cb.Ctx, args []any) (any, error) {
	u := args[0].(int)
	fs, err := readStrings(ctx, userKey(u, "followers"))
	if err != nil {
		return nil, err
	}
	return len(fs), nil
}

// readStrings fetches a []string value, treating missing keys as empty.
func readStrings(ctx *cb.Ctx, key string) ([]string, error) {
	v, found, err := ctx.Get(key)
	if err != nil || !found {
		return nil, err
	}
	out, ok := v.([]string)
	if !ok {
		return nil, fmt.Errorf("retwis: %s holds %T", key, v)
	}
	return out, nil
}

// appendString read-modify-writes a []string value, appending elem
// (capped at max when max > 0).
func appendString(ctx *cb.Ctx, key, elem string, max int) error {
	return appendStringDeps(ctx, key, elem, max)
}

// appendStringDeps is appendString with explicit causal dependencies.
func appendStringDeps(ctx *cb.Ctx, key, elem string, max int, deps ...string) error {
	cur, err := readStrings(ctx, key)
	if err != nil {
		return err
	}
	cur = append(cur, elem)
	if max > 0 && len(cur) > max {
		cur = cur[len(cur)-max:]
	}
	return ctx.PutWithDeps(key, cur, deps...)
}

// prependString read-modify-writes a []string value, prepending elem.
// The new list causally depends (only) on the post being delivered —
// elem is a post id here.
func prependString(ctx *cb.Ctx, key, elem string, max int) error {
	cur, err := readStrings(ctx, key)
	if err != nil {
		return err
	}
	cur = append([]string{elem}, cur...)
	if max > 0 && len(cur) > max {
		cur = cur[:max]
	}
	return ctx.PutWithDeps(key, cur, postKey(elem))
}

// Graph is the generated social graph and initial tweets.
type Graph struct {
	Following [][]int
	Followers [][]int
	PostIDs   []string
	PostOf    map[string]map[string]string
	Timelines [][]string
}

// Generate builds the dataset: Users users each following FollowsPerUser others
// (Zipf 1.5 popularity, §6.3.2), and Tweets prepopulated tweets, half of
// them replies to earlier tweets.
func (r Retwis) Generate(rng *rand.Rand) *Graph {
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
		// Deliver to the author's and followers' timelines, oldest first.
		g.Timelines[author] = append(g.Timelines[author], id)
		for _, f := range g.Followers[author] {
			g.Timelines[f] = append(g.Timelines[f], id)
		}
	}
	// Newest first, as prepend keeps a timeline: the last timelineCap.
	for u, tl := range g.Timelines {
		if len(tl) > timelineCap {
			tl = slices.Clone(tl[len(tl)-timelineCap:])
		}
		slices.Reverse(tl)
		g.Timelines[u] = tl
	}
	return g
}

func prepend(s []string, e string, max int) []string {
	s = append([]string{e}, s...)
	if max > 0 && len(s) > max {
		s = s[:max]
	}
	return s
}

// Preload writes the generated dataset directly into Anna, encapsulated
// per the cluster's consistency mode.
func (r Retwis) Preload(c *cb.Cluster, g *Graph) {
	seq := uint64(0)
	put := func(key string, val any, deps map[string]lattice.VectorClock) {
		seq++
		preload(c, key, seq, deps, codec.MustEncode(val))
	}
	toStrs := func(xs []int) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = fmt.Sprint(x)
		}
		return out
	}
	// Posts first so reply capsules can reference their parents' clocks:
	// a reply causally depends on the tweet it replies to, exactly as a
	// live rt-post write would record (§6.3.2).
	parentVC := make(map[string]lattice.VectorClock)
	posts := make(map[int][]string)
	for _, id := range g.PostIDs {
		var author int
		fmt.Sscanf(g.PostOf[id]["author"], "%d", &author)
		posts[author] = append(posts[author], id)
		var deps map[string]lattice.VectorClock
		if parent := g.PostOf[id]["reply"]; parent != "" {
			if vc, ok := parentVC[parent]; ok {
				deps = map[string]lattice.VectorClock{postKey(parent): vc}
			}
		}
		parentVC[id] = lattice.VectorClock{"preload": seq + 1}
		put(postKey(id), g.PostOf[id], deps)
	}
	for u := 0; u < r.Users; u++ {
		put(userKey(u, "following"), toStrs(g.Following[u]), nil)
		put(userKey(u, "followers"), toStrs(g.Followers[u]), nil)
		put(timelineKey(u), g.Timelines[u], nil)
		put(userKey(u, "posts"), posts[u], nil)
	}
}

// Request issues one operation from the paper's mix: 10% PostTweet
// (half of them replies), 90% GetTimeline. It returns the timeline
// result when applicable.
func (r Retwis) Request(cl *cb.Client, rng *rand.Rand, g *Graph) (*TimelineResult, error) {
	u := rng.Intn(r.Users)
	if rng.Float64() < 0.10 {
		reply := ""
		if rng.Intn(2) == 0 && len(g.PostIDs) > 0 {
			reply = g.PostIDs[rng.Intn(len(g.PostIDs))]
		}
		out, err := cl.Invoke("rt-post", []any{u, fmt.Sprintf("live tweet at %v", cl.Now()), reply}).Wait()
		if err != nil {
			return nil, err
		}
		if id, ok := out.(string); ok {
			g.PostIDs = append(g.PostIDs, id)
		}
		return nil, nil
	}
	res, err := cb.As[TimelineResult](cl.Invoke("rt-timeline", []any{u}))
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RedisOps runs the same application logic against the simulated hosted
// Redis: the client plays the web server, batching reads with MGET as
// retwis-py does (the serverful deployment of §6.3.2).
type RedisOps struct {
	R     Retwis
	Redis interface {
		Get(key string) ([]byte, bool, error)
		Put(key string, val []byte) error
		MGet(keys []string) ([][]byte, error)
	}
}

// Preload loads the dataset into Redis.
func (ro RedisOps) Preload(g *Graph, preload func(key string, val []byte)) {
	toStrs := func(xs []int) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = fmt.Sprint(x)
		}
		return out
	}
	for u := 0; u < ro.R.Users; u++ {
		preload(userKey(u, "following"), codec.MustEncode(toStrs(g.Following[u])))
		preload(userKey(u, "followers"), codec.MustEncode(toStrs(g.Followers[u])))
		preload(timelineKey(u), codec.MustEncode(g.Timelines[u]))
	}
	for _, id := range g.PostIDs {
		preload(postKey(id), codec.MustEncode(g.PostOf[id]))
	}
}

func (ro RedisOps) getStrings(key string) ([]string, error) {
	b, found, err := ro.Redis.Get(key)
	if err != nil || !found {
		return nil, err
	}
	v, err := codec.Decode(b)
	if err != nil {
		return nil, err
	}
	out, _ := v.([]string)
	return out, nil
}

// Timeline is GetTimeline against Redis: one read for the id list, one
// MGET for the posts, one MGET for reply parents.
func (ro RedisOps) Timeline(u int) (TimelineResult, error) {
	res := TimelineResult{}
	ids, err := ro.getStrings(timelineKey(u))
	if err != nil {
		return res, err
	}
	if len(ids) > fetchPosts {
		ids = ids[:fetchPosts]
	}
	if len(ids) == 0 {
		return res, nil
	}
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = postKey(id)
	}
	vals, err := ro.Redis.MGet(keys)
	if err != nil {
		return res, err
	}
	var parentKeys []string
	for _, b := range vals {
		if b == nil {
			continue
		}
		res.Posts++
		v, err := codec.Decode(b)
		if err != nil {
			return res, err
		}
		if post, ok := v.(map[string]string); ok && post["reply"] != "" {
			parentKeys = append(parentKeys, postKey(post["reply"]))
		}
	}
	if len(parentKeys) > 0 {
		parents, err := ro.Redis.MGet(parentKeys)
		if err != nil {
			return res, err
		}
		for _, p := range parents {
			if p == nil {
				res.Anomalies++
			}
		}
	}
	return res, nil
}

// Post is PostTweet against Redis.
func (ro RedisOps) Post(author int, id, text, replyTo string, now time.Duration) error {
	if replyTo != "" {
		ro.Redis.Get(postKey(replyTo))
	}
	post := map[string]string{"author": fmt.Sprint(author), "text": text, "reply": replyTo}
	if err := ro.Redis.Put(postKey(id), codec.MustEncode(post)); err != nil {
		return err
	}
	followers, err := ro.getStrings(userKey(author, "followers"))
	if err != nil {
		return err
	}
	deliver := func(u int) error {
		ids, err := ro.getStrings(timelineKey(u))
		if err != nil {
			return err
		}
		ids = prepend(ids, id, timelineCap)
		return ro.Redis.Put(timelineKey(u), codec.MustEncode(ids))
	}
	if err := deliver(author); err != nil {
		return err
	}
	for _, f := range followers {
		fu, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("retwis: follower id: %w", err)
		}
		if err := deliver(fu); err != nil {
			return err
		}
	}
	return nil
}
