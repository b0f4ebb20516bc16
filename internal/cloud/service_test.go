package cloud

import (
	"testing"
	"time"

	"cloudburst/internal/simnet"
	"cloudburst/internal/vtime"
)

func rig(t *testing.T, p Profile) (*vtime.Kernel, *Service, *Client) {
	t.Helper()
	k := vtime.NewKernel(5)
	t.Cleanup(k.Stop)
	net := simnet.New(k, simnet.Link{Latency: simnet.Constant(200 * time.Microsecond)})
	svc := NewService(k, net.AddNode("svc"), p)
	cl := svc.NewClient(net.AddNode("client"))
	return k, svc, cl
}

func TestPutGetRoundTrip(t *testing.T) {
	k, _, cl := rig(t, RedisProfile())
	k.Run("main", func() {
		if err := cl.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, found, err := cl.Get("k")
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("get = %q %v %v", v, found, err)
		}
		_, found, _ = cl.Get("missing")
		if found {
			t.Fatal("phantom key")
		}
	})
}

func TestVisibilityLagHidesFreshWrites(t *testing.T) {
	p := DynamoProfile()
	k, _, cl := rig(t, p)
	k.Run("main", func() {
		cl.Put("k", []byte("v"))
		_, found, _ := cl.Get("k")
		if found {
			t.Fatal("eventually-consistent read served a fresh write immediately")
		}
		k.Sleep(p.VisibilityLag + 10*time.Millisecond)
		_, found, _ = cl.Get("k")
		if !found {
			t.Fatal("write never became visible")
		}
	})
}

func TestPreloadIsImmediatelyVisible(t *testing.T) {
	k, svc, cl := rig(t, S3Profile())
	svc.Preload("k", []byte("seed"))
	k.Run("main", func() {
		v, found, _ := cl.Get("k")
		if !found || string(v) != "seed" {
			t.Fatalf("preload get = %q %v", v, found)
		}
	})
}

func TestRedisSerializesCommands(t *testing.T) {
	// Two concurrent reads on a Serial service must not overlap; the
	// second completes roughly one service time after the first.
	p := Profile{ReadBase: simnet.Constant(10 * time.Millisecond), WriteBase: simnet.Constant(10 * time.Millisecond), Serial: true}
	k, svc, cl := rig(t, p)
	svc.Preload("k", []byte("v"))
	k.Run("main", func() {
		done := vtime.NewChan[vtime.Time](k, -1)
		for i := 0; i < 2; i++ {
			k.Go("reader", func() {
				cl.Get("k")
				done.TrySend(k.Now())
			})
		}
		t1, _ := done.Recv()
		t2, _ := done.Recv()
		if t2.Sub(t1) < 9*time.Millisecond {
			t.Fatalf("serial service overlapped: %v then %v", t1, t2)
		}
	})
}

func TestParallelServiceOverlaps(t *testing.T) {
	p := Profile{ReadBase: simnet.Constant(10 * time.Millisecond), WriteBase: simnet.Constant(10 * time.Millisecond)}
	k, svc, cl := rig(t, p)
	svc.Preload("k", []byte("v"))
	k.Run("main", func() {
		done := vtime.NewChan[vtime.Time](k, -1)
		for i := 0; i < 4; i++ {
			k.Go("reader", func() {
				cl.Get("k")
				done.TrySend(k.Now())
			})
		}
		var last vtime.Time
		for i := 0; i < 4; i++ {
			at, _ := done.Recv()
			if at > last {
				last = at
			}
		}
		// All four ~10ms reads overlap: total well under 4×10ms.
		if last > vtime.Time(15*time.Millisecond) {
			t.Fatalf("parallel service serialized: finished at %v", last)
		}
	})
}

func TestBandwidthChargesLargeObjects(t *testing.T) {
	p := Profile{ReadBase: simnet.Constant(time.Millisecond), WriteBase: simnet.Constant(time.Millisecond), Bandwidth: 1 << 20}
	k, svc, cl := rig(t, p)
	svc.Preload("big", make([]byte, 1<<20)) // 1MB at 1MB/s = 1s
	k.Run("main", func() {
		start := k.Now()
		_, found, err := cl.Get("big")
		if err != nil || !found {
			t.Fatal(err)
		}
		if k.Now().Sub(start) < time.Second {
			t.Fatalf("1MB at 1MB/s took only %v", k.Now().Sub(start))
		}
	})
}

func TestMGetBatchesInOneRoundTrip(t *testing.T) {
	p := RedisProfile()
	k, svc, cl := rig(t, p)
	keys := []string{"a", "b", "c", "missing"}
	for _, key := range keys[:3] {
		svc.Preload(key, []byte("v-"+key))
	}
	k.Run("main", func() {
		start := k.Now()
		vals, err := cl.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		if string(vals[0]) != "v-a" || string(vals[2]) != "v-c" || vals[3] != nil {
			t.Fatalf("mget vals = %q", vals)
		}
		// One round trip plus per-key costs: far less than 4 Gets.
		if k.Now().Sub(start) > 3*time.Millisecond {
			t.Fatalf("mget took %v", k.Now().Sub(start))
		}
	})
}

func TestProfilesAreOrdered(t *testing.T) {
	// The relative latency ordering the figures depend on:
	// Redis < Dynamo < S3 for small reads.
	r := RedisProfile().ReadBase.(simnet.LogNormal).Med
	d := DynamoProfile().ReadBase.(simnet.LogNormal).Med
	s := S3Profile().ReadBase.(simnet.LogNormal).Med
	if !(r < d && d < s) {
		t.Fatalf("profile ordering broken: redis=%v dynamo=%v s3=%v", r, d, s)
	}
}
