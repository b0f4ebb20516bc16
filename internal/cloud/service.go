// Package cloud simulates the commodity cloud storage services the paper
// compares against: AWS S3, DynamoDB, and ElastiCache/Redis. Each
// service is a network node with a calibrated latency/bandwidth profile;
// Redis additionally serializes all commands through a single master
// thread, which is what creates the write-queueing delay §6.1.3 calls
// out. The profiles' nominal numbers are documented constants, chosen to
// match the latency envelopes the paper reports (§6.1.2: "ElastiCache
// ... offers best-case latencies", "S3 is efficient for high bandwidth
// tasks but imposes a high latency penalty for smaller data objects").
package cloud

import (
	"time"

	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

// Profile is a storage service's performance envelope.
type Profile struct {
	// ReadBase/WriteBase are per-operation service latencies (excluding
	// transfer time).
	ReadBase  simnet.LatencyModel
	WriteBase simnet.LatencyModel
	// Bandwidth is the per-request transfer rate in bytes/second.
	Bandwidth float64
	// Serial forces one-command-at-a-time processing (Redis's single
	// master thread). Non-serial services process requests with
	// unbounded parallelism (S3/DynamoDB front fleets).
	Serial bool
	// VisibilityLag models eventual consistency: a write only becomes
	// readable after this delay (S3's pre-2020 read-after-write
	// semantics; DynamoDB's default eventually-consistent reads). This
	// is what makes polling-based coordination through these services
	// slow in §6.1.3.
	VisibilityLag time.Duration
}

// S3Profile models AWS S3: tens-of-ms base latency, high bandwidth —
// efficient for large objects, expensive for small ones (§6.1.2).
func S3Profile() Profile {
	return Profile{
		ReadBase:      simnet.LogNormal{Med: 12 * time.Millisecond, Sigma: 0.45},
		WriteBase:     simnet.LogNormal{Med: 18 * time.Millisecond, Sigma: 0.45},
		Bandwidth:     110e6, // ~110 MB/s per connection
		VisibilityLag: 250 * time.Millisecond,
	}
}

// DynamoProfile models DynamoDB: single-digit-ms items, modest
// throughput per request.
func DynamoProfile() Profile {
	return Profile{
		ReadBase:      simnet.LogNormal{Med: 3500 * time.Microsecond, Sigma: 0.40},
		WriteBase:     simnet.LogNormal{Med: 5 * time.Millisecond, Sigma: 0.40},
		Bandwidth:     40e6,
		VisibilityLag: 120 * time.Millisecond,
	}
}

// RedisProfile models a hosted Redis (ElastiCache): sub-ms commands,
// but a single master serializes execution, so concurrent load queues
// (§6.1.3).
func RedisProfile() Profile {
	return Profile{
		ReadBase:  simnet.LogNormal{Med: 250 * time.Microsecond, Sigma: 0.30},
		WriteBase: simnet.LogNormal{Med: 300 * time.Microsecond, Sigma: 0.30},
		Bandwidth: 300e6,
		Serial:    true,
	}
}

// GetReq fetches an object.
type GetReq struct {
	Key string
}

// GetResp answers GetReq.
type GetResp struct {
	Val   []byte
	Found bool
}

// MGetReq fetches several objects in one round trip (Redis MGET, S3
// batch — retwis-py leans on this heavily).
type MGetReq struct {
	Keys []string
}

// MGetResp answers MGetReq; missing (or not-yet-visible) keys are nil.
type MGetResp struct {
	Vals [][]byte
}

// PutReq stores an object. The service takes ownership of Val: like
// every payload on the data plane, the buffer is immutable once handed
// over, so gets can return the stored bytes without copying.
type PutReq struct {
	Key string
	Val []byte
}

// PutResp acknowledges PutReq.
type PutResp struct{}

// object is one stored value with its eventual-consistency horizon.
type object struct {
	val       []byte
	visibleAt vtime.Time
}

// Service is one running storage service. Requests dispatch through a
// concurrent simnet.Dispatcher — every command gets its own (pooled)
// worker process, modeling an S3/DynamoDB-style front fleet — and Serial
// profiles then contend on the master semaphore, producing Redis's
// write-queueing delay.
type Service struct {
	k       *vtime.Kernel
	ep      *simnet.Endpoint
	profile Profile
	store   map[string]object
	// master serializes command execution when the profile is Serial.
	master *vtime.Semaphore
}

// NewService boots a storage service on endpoint ep.
func NewService(k *vtime.Kernel, ep *simnet.Endpoint, p Profile) *Service {
	s := &Service{
		k:       k,
		ep:      ep,
		profile: p,
		store:   make(map[string]object),
		master:  vtime.NewSemaphore(k, 1),
	}
	d := simnet.NewDispatcher(ep, string(ep.ID())).Concurrent()
	simnet.OnRequest(d, s.handleGet)
	simnet.OnRequest(d, s.handleMGet)
	simnet.OnRequest(d, s.handlePut)
	d.Start()
	return s
}

// acquire takes the master thread when the profile is serial; release
// undoes it.
func (s *Service) acquire() {
	if s.profile.Serial {
		s.master.Acquire()
	}
}

func (s *Service) release() {
	if s.profile.Serial {
		s.master.Release()
	}
}

func (s *Service) handleGet(req *simnet.Request, b GetReq) {
	s.acquire()
	defer s.release()
	s.k.Sleep(s.profile.ReadBase.Sample(s.k.Rand()))
	obj, found := s.store[b.Key]
	if found && s.k.Now() < obj.visibleAt {
		found = false // write not yet visible (eventual consistency)
	}
	if !found {
		req.Reply(GetResp{Found: false}, 32)
		return
	}
	s.k.Sleep(s.transfer(len(obj.val)))
	// Stored values are immutable (see PutReq): reply with the
	// stored buffer instead of copying it.
	req.Reply(GetResp{Val: obj.val, Found: true}, 32+len(obj.val))
}

func (s *Service) handleMGet(req *simnet.Request, b MGetReq) {
	s.acquire()
	defer s.release()
	s.k.Sleep(s.profile.ReadBase.Sample(s.k.Rand()))
	resp := MGetResp{Vals: make([][]byte, len(b.Keys))}
	size := 32
	for i, key := range b.Keys {
		s.k.Sleep(30 * time.Microsecond) // per-key lookup cost
		obj, found := s.store[key]
		if !found || s.k.Now() < obj.visibleAt {
			continue
		}
		s.k.Sleep(s.transfer(len(obj.val)))
		resp.Vals[i] = obj.val
		size += len(obj.val)
	}
	req.Reply(resp, size)
}

func (s *Service) handlePut(req *simnet.Request, b PutReq) {
	s.acquire()
	defer s.release()
	s.k.Sleep(s.profile.WriteBase.Sample(s.k.Rand()))
	s.k.Sleep(s.transfer(len(b.Val)))
	s.store[b.Key] = object{
		val:       b.Val, // service takes ownership; payloads are immutable
		visibleAt: s.k.Now().Add(s.profile.VisibilityLag),
	}
	req.Reply(PutResp{}, 16)
}

// transfer is the service-side payload processing time.
func (s *Service) transfer(size int) time.Duration {
	if s.profile.Bandwidth <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / s.profile.Bandwidth * float64(time.Second))
}

// Preload inserts an object without paying request latency (workload
// setup); it is immediately visible.
func (s *Service) Preload(key string, val []byte) {
	s.store[key] = object{val: val}
}

// Client is a caller-side handle to a storage service.
type Client struct {
	ep      *simnet.Endpoint
	service simnet.NodeID
	timeout time.Duration
}

// NewClient binds a client at ep to the service.
func (s *Service) NewClient(ep *simnet.Endpoint) *Client {
	return &Client{ep: ep, service: s.ep.ID(), timeout: 30 * time.Second}
}

// Get fetches an object.
func (c *Client) Get(key string) ([]byte, bool, error) {
	resp, err := c.ep.Call(c.service, GetReq{Key: key}, 32+len(key), c.timeout)
	if err != nil {
		return nil, false, err
	}
	r := resp.(GetResp)
	return r.Val, r.Found, nil
}

// Put stores an object.
func (c *Client) Put(key string, val []byte) error {
	_, err := c.ep.Call(c.service, PutReq{Key: key, Val: val}, 32+len(key)+len(val), c.timeout)
	return err
}

// MGet fetches several objects in one round trip; missing keys are nil.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	size := 32
	for _, k := range keys {
		size += len(k)
	}
	resp, err := c.ep.Call(c.service, MGetReq{Keys: keys}, size, c.timeout)
	if err != nil {
		return nil, err
	}
	return resp.(MGetResp).Vals, nil
}
