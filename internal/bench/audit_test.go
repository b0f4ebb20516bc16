package bench

import (
	"testing"

	cb "cloudburst"
	"cloudburst/internal/audit"
	"cloudburst/internal/parallel"
)

// TestAnomalyAuditControls runs Table 2's workload at its reduced size
// with the audit recorder attached, once under LWW and once under DSRR.
// The positive controls: LWW, which guarantees none of the four levels,
// must show anomalies at every one of them, or the detectors have gone
// blind. The negative control: DSRR, which enforces repeatable reads
// within a DAG, must show no DSRR anomaly. (The SK, MK and DSC modes'
// own negative controls do not hold yet, so they are not asserted.)
func TestAnomalyAuditControls(t *testing.T) {
	cfg := Table2Quick()
	reduced["table2"].(func(*Table2Config))(&cfg)
	f := cfg.Fig8
	f.Requests = cfg.Executions / f.Clients
	reps := parallel.Map([]cb.Consistency{cb.LWW, cb.RepeatableRead}, func(_ int, mode cb.Consistency) audit.Report {
		rec := audit.NewRecorder()
		fig8Mode(f, mode, rec)
		return rec.Analyze()
	})
	lww, dsrr := reps[0], reps[1]
	t.Logf("LWW: SK %d, MK %d, DSC %d, DSRR %d", lww.SK, lww.MK, lww.DSC, lww.DSRR)
	t.Logf("DSRR: SK %d, MK %d, DSC %d, DSRR %d", dsrr.SK, dsrr.MK, dsrr.DSC, dsrr.DSRR)
	for _, lvl := range []struct {
		name string
		n    int
	}{{"SK", lww.SK}, {"MK", lww.MK}, {"DSC", lww.DSC}, {"DSRR", lww.DSRR}} {
		if lvl.n <= 0 {
			t.Errorf("LWW run flagged %d %s anomalies, want > 0", lvl.n, lvl.name)
		}
	}
	if dsrr.DSRR != 0 {
		t.Errorf("DSRR run flagged %d DSRR anomalies, want 0", dsrr.DSRR)
	}
}
