package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// reset puts the package back into a known state for each test. Tests in
// this package share the global recorder, so none of them run in parallel.
func reset(tracks, capacity int) {
	Disable()
	state.Store(nil)
	Configure(tracks, capacity)
}

func TestDisabledStartIsZero(t *testing.T) {
	reset(2, 64)
	if got := Start(); got != 0 {
		t.Fatalf("Start with tracing disabled = %d, want 0", got)
	}
	// Recording with a zero token must be a no-op.
	RingFor(0).Record(StageSend, ClassUser, 1, 0, 42)
	Enable()
	Disable()
	if evs := Snapshot(); len(evs) != 0 {
		t.Fatalf("snapshot after no-op records has %d events, want 0", len(evs))
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	reset(3, 64)
	Enable()
	r0, r2 := RingFor(0), RingFor(2)
	start := Start()
	if start == 0 {
		t.Fatal("Start returned 0 with tracing enabled")
	}
	r0.Record(StageAdmission, ClassNone, 7, start, 4)
	r2.RecordSpan(StageSend, ClassColl, 7, start, start+1500, 1024)
	Disable()
	evs := Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot has %d events, want 2", len(evs))
	}
	var sawSend bool
	for _, ev := range evs {
		if ev.ID != 7 {
			t.Errorf("event id = %d, want 7", ev.ID)
		}
		if ev.Stage == StageSend {
			sawSend = true
			if ev.Track != 2 || ev.Class != ClassColl || ev.Dur != 1500 || ev.Arg != 1024 {
				t.Errorf("send event = %+v, want track 2, coll, dur 1500, arg 1024", ev)
			}
		}
	}
	if !sawSend {
		t.Fatal("send span missing from snapshot")
	}
}

func TestRingWraparound(t *testing.T) {
	reset(1, 8) // capacity rounds up to 64
	Enable()
	r := RingFor(0)
	n := len(r.slots)
	for i := 0; i < 3*n; i++ {
		r.Record(StageSend, ClassUser, uint64(i), Start(), int64(i))
	}
	Disable()
	evs := Snapshot()
	if len(evs) != n {
		t.Fatalf("snapshot after wraparound has %d events, want ring capacity %d", len(evs), n)
	}
	// The survivors must be the most recent n records.
	for _, ev := range evs {
		if ev.Arg < int64(2*n) {
			t.Fatalf("stale event arg %d survived wraparound (oldest expected %d)", ev.Arg, 2*n)
		}
	}
}

func TestEpochExcludesPriorRuns(t *testing.T) {
	reset(1, 64)
	Enable()
	RingFor(0).Record(StageSend, ClassUser, 1, Start(), 0)
	Disable()
	time.Sleep(time.Millisecond)
	Enable() // new epoch: the old span must not reappear
	RingFor(0).Record(StageRecv, ClassUser, 2, Start(), 0)
	Disable()
	evs := Snapshot()
	if len(evs) != 1 || evs[0].Stage != StageRecv {
		t.Fatalf("snapshot = %+v, want exactly the one post-Enable event", evs)
	}
}

func TestRecordZeroAllocsTracingOn(t *testing.T) {
	reset(1, 1024)
	Enable()
	defer Disable()
	r := RingFor(0)
	allocs := testing.AllocsPerRun(1000, func() {
		start := Start()
		r.Record(StageGemmKernel, ClassNone, 42, start, 4096)
	})
	if allocs != 0 {
		t.Fatalf("recording a span allocates %.1f times per op, want 0", allocs)
	}
}

func TestHookZeroAllocsTracingOff(t *testing.T) {
	reset(1, 64)
	Disable()
	r := RingFor(0)
	allocs := testing.AllocsPerRun(1000, func() {
		start := Start()
		r.Record(StageSend, ClassUser, 1, start, 64)
	})
	if allocs != 0 {
		t.Fatalf("disabled hook allocates %.1f times per op, want 0", allocs)
	}
}

func TestStageAndClassNames(t *testing.T) {
	for s := StageNone + 1; s < numStages; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Errorf("stage %d has no name", s)
		}
	}
	if Stage(999).String() != "unknown" {
		t.Error("out-of-range stage should stringify as unknown")
	}
	for _, c := range []Class{ClassUser, ClassColl, ClassProxy} {
		if c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestConfigureGrowsAndKeeps(t *testing.T) {
	reset(2, 64)
	Configure(1, 16) // smaller: must be a no-op
	if got := len(state.Load().rings); got != 2 {
		t.Fatalf("shrinking Configure changed tracks to %d", got)
	}
	Configure(4, 256)
	if got := len(state.Load().rings); got != 4 {
		t.Fatalf("growing Configure gave %d tracks, want 4", got)
	}
	if got := len(RingFor(0).slots); got != 256 {
		t.Fatalf("ring capacity after growth = %d, want 256", got)
	}
	// Out-of-range tracks clamp instead of panicking.
	if RingFor(-1) != RingFor(0) || RingFor(99) != RingFor(3) {
		t.Fatal("RingFor does not clamp out-of-range tracks")
	}
}

func TestWriteChrome(t *testing.T) {
	reset(2, 64)
	Enable()
	base := Start()
	RingFor(0).RecordSpan(StageAdmission, ClassNone, 9, base, base+2000, 3)
	RingFor(1).RecordSpan(StageGemmKernel, ClassNone, 9, base+500, base+1500, 4096)
	Disable()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	tids := map[int]bool{}
	var sawGemm bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Tid] = true
			if ev.Name == "gemm_kernel" {
				sawGemm = true
				if ev.Dur != 1.0 { // 1000ns span = 1µs
					t.Errorf("gemm span dur = %v µs, want 1", ev.Dur)
				}
			}
		}
	}
	if len(tids) != 2 || !sawGemm {
		t.Fatalf("chrome trace spans %d tracks (want 2), sawGemm=%v\n%s", len(tids), sawGemm, buf.String())
	}
}
