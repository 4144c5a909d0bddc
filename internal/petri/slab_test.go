package petri

import (
	"context"
	"reflect"
	"testing"
)

// engineWindows copies every slice an engine owns, growable buffers to their
// full capacity, so a comparison catches writes anywhere in its share of a
// slab — including the unused tail of a buffer.
func engineWindows(e *engine) []any {
	return []any{
		append(Marking(nil), e.marking...),
		append([]int(nil), e.degree...),
		append([]float64(nil), e.fireAt...),
		append([]float64(nil), e.remain...),
		append([]timerNode(nil), e.heap[:cap(e.heap)]...),
		append([]int32(nil), e.heapPos...),
		append([]int32(nil), e.unsat...),
		append([]bool(nil), e.guardEnabled...),
		append([]int32(nil), e.groupLive...),
		append([]int32(nil), e.dirty[:cap(e.dirty)]...),
		append([]int32(nil), e.candTimed[:cap(e.candTimed)]...),
		append([]int32(nil), e.immScratch[:cap(e.immScratch)]...),
		append([]placeStat(nil), e.pstats...),
		append([]uint64(nil), e.firings...),
	}
}

// TestOpenSessionsMatchOneAtATime opens N sessions from one slab and N
// sessions one at a time, drives both sets through the same StepTo and
// Inject sequence, and requires bit-identical results. One slab session
// receives an injection burst far larger than its dirty list's share of the
// slab; its neighbours' state must not change while it outgrows it.
func TestOpenSessionsMatchOneAtATime(t *testing.T) {
	ctx := context.Background()
	nets := map[string]*Net{
		"mm1":   mm1Net(2, 5),
		"pool":  poolStationsNet(),
		"batch": batchAdmitNet(8),
	}
	const N, burstAt = 5, 2
	opt := func(i int) SimOptions {
		return SimOptions{Seed: uint64(i) + 1, Warmup: 5, Duration: 200, Memory: MemoryPolicy(i % 2)}
	}
	for name, n := range nets {
		c := MustCompile(n)
		// One pooled engine: the slab open takes it first and carves the
		// rest.
		if _, err := c.Simulate(opt(0)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		slab, err := c.OpenSessions(ctx, N, opt)
		if err != nil {
			t.Fatalf("%s: OpenSessions: %v", name, err)
		}
		single := make([]*Session, N)
		for i := range single {
			if single[i], err = c.OpenSession(ctx, opt(i)); err != nil {
				t.Fatalf("%s: OpenSession: %v", name, err)
			}
		}

		// The burst appends one dirty entry per injection: enough to run
		// through the rest of the engine's int32 share and into the next.
		nP := len(n.Places)
		burst := make([]Injection, 16*(nP+len(n.Transitions)))
		for k := range burst {
			burst[k] = Injection{Place: 0, Tokens: 1}
		}
		for step := 1; step <= 35; step++ {
			at := 5.3 * float64(step)
			for i := 0; i < N; i++ {
				for _, s := range []*Session{&slab[i], single[i]} {
					if err := s.StepTo(at); err != nil {
						t.Fatalf("%s: session %d StepTo(%v): %v", name, i, at, err)
					}
					if (step+i)%3 == 0 {
						if err := s.Inject(Injection{Place: 0, Tokens: 1}); err != nil {
							t.Fatalf("%s: session %d Inject: %v", name, i, err)
						}
					}
				}
			}
			if step != 20 {
				continue
			}
			before := make([][]any, N)
			for i := range slab {
				before[i] = engineWindows(slab[i].e)
			}
			share := cap(slab[burstAt].e.dirty)
			for _, s := range []*Session{&slab[burstAt], single[burstAt]} {
				if err := s.Inject(burst...); err != nil {
					t.Fatalf("%s: burst Inject: %v", name, err)
				}
			}
			if cap(slab[burstAt].e.dirty) <= share {
				t.Fatalf("%s: burst of %d left the dirty list within its share %d", name, len(burst), share)
			}
			for i := range slab {
				if i != burstAt && !reflect.DeepEqual(before[i], engineWindows(slab[i].e)) {
					t.Fatalf("%s: session %d changed while session %d outgrew its dirty list", name, i, burstAt)
				}
			}
		}
		for i := range slab {
			want, err := single[i].Finish()
			if err != nil {
				t.Fatalf("%s: single %d Finish: %v", name, i, err)
			}
			got, err := slab[i].Finish()
			if err != nil {
				t.Fatalf("%s: slab %d Finish: %v", name, i, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: session %d: slab and one-at-a-time results differ\nwant %+v\ngot  %+v", name, i, want, got)
			}
		}
		// Engines sharing a slab are not pooled, or one would pin the rest.
		for {
			e, ok := c.enginePool.Get().(*engine)
			if !ok {
				break
			}
			if e.shared {
				t.Fatalf("%s: an engine carved with others went back to the pool", name)
			}
		}
	}
}

// TestOpenSessionsRejectsBadOptions checks that a bad option part-way
// through a batch, or a negative count, fails the whole open.
func TestOpenSessionsRejectsBadOptions(t *testing.T) {
	c := MustCompile(mm1Net(2, 5))
	_, err := c.OpenSessions(context.Background(), 4, func(i int) SimOptions {
		if i == 2 {
			return SimOptions{Seed: 1, Duration: 0}
		}
		return SimOptions{Seed: uint64(i), Duration: 10}
	})
	if err == nil {
		t.Fatal("OpenSessions accepted a zero duration")
	}
	if _, err := c.OpenSessions(context.Background(), -1, func(int) SimOptions { return SimOptions{Duration: 1} }); err == nil {
		t.Fatal("OpenSessions accepted a negative count")
	}
}
