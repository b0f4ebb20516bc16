package core

// Reflection-free wire codecs for the metrics structs every executor
// VM, cache, and scheduler publishes to Anna each metrics interval —
// the highest-frequency struct traffic in the system. As codec wire
// structs (tag 0x0f) the capsules are their fields' actual bytes, which
// the simulated transfer and service times see.

import (
	"cloudburst/internal/codec"
	"cloudburst/internal/simnet"
)

func init() {
	codec.RegisterStruct[ExecutorMetrics, *ExecutorMetrics]("core.ExecutorMetrics")
	codec.RegisterStruct[CacheMetrics, *CacheMetrics]("core.CacheMetrics")
	codec.RegisterStruct[SchedulerMetrics, *SchedulerMetrics]("core.SchedulerMetrics")
	codec.RegisterStruct[WarmSeed, *WarmSeed]("core.WarmSeed")
}

// AppendWire implements codec.Struct.
func (s WarmSeed) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, s.VM)
	dst = codec.AppendStrs(dst, s.Keys)
	dst = codec.AppendStrs(dst, s.Pinned)
	return codec.AppendF64(dst, s.DiedAtS)
}

// DecodeWire implements codec.Struct.
func (s *WarmSeed) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	s.VM = r.Str()
	s.Keys = r.Strs()
	s.Pinned = r.Strs()
	s.DiedAtS = r.F64()
	return r.Done()
}

// AppendWire implements codec.Struct.
func (m ExecutorMetrics) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, string(m.Thread))
	dst = codec.AppendStr(dst, m.VM)
	dst = codec.AppendF64(dst, m.Utilization)
	dst = codec.AppendStrs(dst, m.Pinned)
	dst = codec.AppendI64(dst, m.Completed)
	dst = codec.AppendF64(dst, m.AvgLatencyS)
	return codec.AppendF64(dst, m.ReportedAtS)
}

// DecodeWire implements codec.Struct.
func (m *ExecutorMetrics) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	m.Thread = simnet.NodeID(r.Str())
	m.VM = r.Str()
	m.Utilization = r.F64()
	m.Pinned = r.Strs()
	m.Completed = r.I64()
	m.AvgLatencyS = r.F64()
	m.ReportedAtS = r.F64()
	return r.Done()
}

// AppendWire implements codec.Struct.
func (m CacheMetrics) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, m.VM)
	dst = codec.AppendStr(dst, string(m.Cache))
	dst = m.Keys.Append(dst)
	return codec.AppendF64(dst, m.ReportedAtS)
}

// DecodeWire implements codec.Struct.
func (m *CacheMetrics) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	m.VM = r.Str()
	m.Cache = simnet.NodeID(r.Str())
	m.Keys = r.StrList()
	m.ReportedAtS = r.F64()
	return r.Done()
}

// AppendWire implements codec.Struct.
func (m SchedulerMetrics) AppendWire(dst []byte) []byte {
	dst = codec.AppendStr(dst, string(m.Scheduler))
	dst = codec.AppendI64Map(dst, m.DAGCalls)
	dst = codec.AppendI64Map(dst, m.FnCalls)
	return codec.AppendF64(dst, m.ReportedAtS)
}

// DecodeWire implements codec.Struct.
func (m *SchedulerMetrics) DecodeWire(body []byte) error {
	r := codec.NewReader(body)
	m.Scheduler = simnet.NodeID(r.Str())
	m.DAGCalls = r.I64Map()
	m.FnCalls = r.I64Map()
	m.ReportedAtS = r.F64()
	return r.Done()
}
