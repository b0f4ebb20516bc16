package dag

// Reflection-free wire codec for DAG topologies. Registered DAGs are
// the schedulers' only persistent metadata: stored in Anna at
// registration and re-fetched by every scheduler, executor, and the
// monitor that first encounters the name, as a codec wire struct.

import "cloudburst/internal/codec"

func init() {
	codec.RegisterStruct[DAG, *DAG]("dag.DAG")
}

// AppendWire implements codec.Struct.
func (d DAG) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, d.Name)
	dst = codec.AppendStrs(dst, d.Functions)
	dst = codec.AppendU32(dst, uint32(len(d.Edges)))
	for _, e := range d.Edges {
		dst = codec.AppendStr(dst, e[0])
		dst = codec.AppendStr(dst, e[1])
	}
	return dst
}

// DecodeWire implements codec.Struct.
func (d *DAG) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	d.Name = r.Str()
	d.Functions = r.Strs()
	n := r.Count(8) // each edge is at least two u32 length prefixes
	if n > 0 {
		d.Edges = make([][2]string, 0, n)
		for i := 0; i < n; i++ {
			d.Edges = append(d.Edges, [2]string{r.Str(), r.Str()})
		}
	} else {
		d.Edges = nil
	}
	if err := r.Err(); err != nil {
		d.Edges = nil
		return err
	}
	return r.Done()
}
