package txn

import (
	"reflect"
	"strings"
	"testing"

	"cloudburst/internal/codec"
)

func TestRecordWireRoundTrip(t *testing.T) {
	for _, in := range []Record{
		{TxnID: "req-7/a1", Keys: []string{"acct/1", "acct/2"}, Result: []byte{0x04, 1, 0, 0, 0, 0, 0, 0, 0}},
		{TxnID: "only-id"},
		{},
	} {
		v, err := codec.Decode(codec.MustEncode(in))
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		out, err := AsRecord(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	}
	// Empty keys and an empty result decode nil, like every wire struct.
	out := codec.MustDecode(codec.MustEncode(Record{Keys: []string{}, Result: []byte{}})).(Record)
	if out.Keys != nil || out.Result != nil {
		t.Fatalf("empty fields decoded non-nil: %#v", out)
	}
	if _, err := AsRecord("not a record"); err == nil {
		t.Fatal("AsRecord accepted a string")
	}
}

func TestRecordWireRejectsTruncation(t *testing.T) {
	enc := codec.MustEncode(Record{TxnID: "t1", Keys: []string{"a", "bb"}, Result: []byte("res")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := codec.Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(enc))
		}
	}
}

func TestRecordWireRejectsTrailingGarbage(t *testing.T) {
	enc := append(codec.MustEncode(Record{TxnID: "t1", Keys: []string{"a"}}), 0xff)
	if _, err := codec.Decode(enc); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want a trailing-bytes error", err)
	}
}
