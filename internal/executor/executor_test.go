package executor

import (
	"bytes"
	"strings"
	"testing"
)

func TestTagUntagRoundTrip(t *testing.T) {
	payload := []byte("hello payload")
	tagged := tagPayload("req-1#3/w2", payload)
	id, inner := untag(tagged)
	if id != "req-1#3/w2" || !bytes.Equal(inner, payload) {
		t.Fatalf("untag = %q, %q", id, inner)
	}
}

func TestUntagPassesThroughPlainPayloads(t *testing.T) {
	for _, p := range [][]byte{nil, {}, []byte("plain"), {0x01, 0x02}} {
		id, inner := untag(p)
		if id != "" || !bytes.Equal(inner, p) {
			t.Fatalf("plain payload mangled: %q %q", id, inner)
		}
	}
}

func TestUntagTruncatedTagIsPassthrough(t *testing.T) {
	// Claims a 300-byte id but provides 2 bytes: must not panic and
	// must pass through.
	p := []byte{tagMagic, 0x01, 0x2C, 'a', 'b'}
	id, inner := untag(p)
	if id != "" || !bytes.Equal(inner, p) {
		t.Fatalf("truncated tag mishandled: %q %q", id, inner)
	}
}

func TestTagLongWriteID(t *testing.T) {
	longID := strings.Repeat("x", 1000)
	id, inner := untag(tagPayload(longID, []byte("v")))
	if id != longID || string(inner) != "v" {
		t.Fatal("long id round trip failed")
	}
}

func TestExportedUntagMatches(t *testing.T) {
	tagged := tagPayload("id", []byte("v"))
	id1, p1 := untag(tagged)
	id2, p2 := Untag(tagged)
	if id1 != id2 || !bytes.Equal(p1, p2) {
		t.Fatal("Untag diverges from untag")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Lookup("f"); ok {
		t.Fatal("phantom function")
	}
	r.Register("f", func(ctx *Ctx, args []any) (any, error) { return 1, nil })
	r.Register("a", func(ctx *Ctx, args []any) (any, error) { return 2, nil })
	if _, ok := r.Lookup("f"); !ok {
		t.Fatal("registered function missing")
	}
	// Re-registration replaces.
	r.Register("f", func(ctx *Ctx, args []any) (any, error) { return 3, nil })
	fn, _ := r.Lookup("f")
	if out, _ := fn(nil, nil); out.(int) != 3 {
		t.Fatal("re-registration did not replace body")
	}
}

func TestFnErrorWrapping(t *testing.T) {
	err := fnError("myfn", errTest)
	if !strings.Contains(err.Error(), "myfn") {
		t.Fatalf("error lost context: %v", err)
	}
}

var errTest = errForTest{}

type errForTest struct{}

func (errForTest) Error() string { return "boom" }
