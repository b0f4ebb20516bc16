package dag

// Reflection-free wire codec for DAG topologies. Registered DAGs are
// the schedulers' only persistent metadata: stored in Anna at
// registration and re-fetched by every scheduler, executor, and the
// monitor that first encounters the name, as a codec wire struct.

import (
	"fmt"

	"cloudburst/internal/codec"
)

func init() {
	codec.RegisterStruct[DAG, *DAG]("dag.DAG")
}

// links is the number of (from, to) pairs a chain of n functions writes.
func links(n int) int { return max(n-1, 0) }

// AppendWire implements codec.Struct. After the name and the functions
// it writes the chain's links, function i to function i+1, as (from, to)
// name pairs. They repeat what the functions say, but a DAG capsule's
// size sets the simulated cost of every registration put and topology
// fetch that carries it, so they stay.
func (d DAG) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, d.Name)
	dst = codec.AppendStrs(dst, d.Functions)
	dst = codec.AppendU32(dst, uint32(links(len(d.Functions))))
	for i := 1; i < len(d.Functions); i++ {
		dst = codec.AppendStr(dst, d.Functions[i-1])
		dst = codec.AppendStr(dst, d.Functions[i])
	}
	return dst
}

// DecodeWire implements codec.Struct. It checks the links against the
// chain and rejects any other list: a fan-in, links out of order, or a
// count other than n−1.
func (d *DAG) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	d.Name = r.Str()
	d.Functions = r.Strs()
	n := r.Count(8) // each link is at least two u32 length prefixes
	if err := r.Err(); err != nil {
		return err
	}
	if n != links(len(d.Functions)) {
		return fmt.Errorf("dag %q: %d links for a chain of %d functions", d.Name, n, len(d.Functions))
	}
	for i := 1; i <= n; i++ {
		from, to := r.Str(), r.Str()
		if r.Err() == nil && (from != d.Functions[i-1] || to != d.Functions[i]) {
			return fmt.Errorf("dag %q: link %d is %q→%q, not the chain's", d.Name, i-1, from, to)
		}
	}
	return r.Done()
}
