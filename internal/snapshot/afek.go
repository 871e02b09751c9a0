package snapshot

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// Afek is the wait-free single-writer snapshot of Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit (JACM 1993), the standard read/write wait-free
// baseline. Each Update embeds a full view (obtained by an internal scan)
// alongside its value; a scanner that fails to get a clean double collect
// watches for a segment that changes twice and borrows that updater's
// embedded view, which is guaranteed to have been taken inside the
// scanner's interval.
//
// Both Scan and Update are O(N^2) steps worst case (O(N) when
// uncontended). Update capacity is restricted by the cell arena (the
// object is built for a declared number of updates), in the same spirit as
// the paper's restricted-use objects.
type Afek struct {
	n     int
	segs  []*primitive.Register // cell offsets
	cells *words                // cells: n+2-word records [value, seq, view...]
	limit int64
}

var _ Snapshot = (*Afek)(nil)

// NewAfek builds a wait-free snapshot with n >= 1 segments supporting at
// most maxUpdates Update operations in total.
func NewAfek(pool *primitive.Pool, n int, maxUpdates int64) (*Afek, error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: need n >= 1 segments, got %d", n)
	}
	if maxUpdates < 0 {
		return nil, fmt.Errorf("snapshot: negative update limit %d", maxUpdates)
	}
	width := int64(n + 2)
	s := &Afek{
		n:     n,
		cells: &words{limit: wordBudget(width, maxUpdates, width)},
		limit: maxUpdates,
	}
	s.cells.reserve(n + 2)                   // the all-zero cell at offset 0
	s.segs = pool.NewSlice("afek.seg", n, 0) // all point at the zero cell
	return s, nil
}

// Components implements Snapshot.
func (s *Afek) Components() int { return s.n }

// Update implements Snapshot: an embedded scan, one read of the writer's
// own segment, and one write.
func (s *Afek) Update(ctx primitive.Context, v int64) error {
	id, err := checkID(ctx, s.n)
	if err != nil {
		return err
	}
	view := s.scan(ctx)
	oldSeq := s.cell(ctx.Read(s.segs[id]))[1]
	off, cell, ok := s.cells.reserve(s.n + 2)
	if !ok {
		return &CapacityError{Object: "afek snapshot", Limit: s.limit}
	}
	cell[0], cell[1] = v, oldSeq+1
	copy(cell[2:], view)
	ctx.Write(s.segs[id], off)
	return nil
}

// Scan implements Snapshot.
func (s *Afek) Scan(ctx primitive.Context) []int64 {
	return s.scan(ctx)
}

// scan returns a fresh, consistent view. It terminates within 2n+1
// collects: every dirty collect pair charges a move to some segment, and a
// segment observed moving twice donates its embedded view.
func (s *Afek) scan(ctx primitive.Context) []int64 {
	moved := make([]int, s.n)
	prev := s.collect(ctx)
	//tradeoffvet:casretry bounded but not visibly so: every dirty collect pair charges a move to some segment and a segment moving twice donates its view, so at most 2n+1 collects run (see the doc comment)
	for {
		cur := s.collect(ctx)
		dirty := false
		for i := range cur {
			if cur[i] == prev[i] {
				continue
			}
			dirty = true
			moved[i]++
			if moved[i] >= 2 {
				// Segment i moved twice during this scan: the second
				// cell's embedded view was collected entirely within
				// our interval.
				out := make([]int64, s.n)
				copy(out, s.cell(cur[i])[2:])
				return out
			}
		}
		if !dirty {
			out := make([]int64, s.n)
			for i, off := range cur {
				out[i] = s.cell(off)[0]
			}
			return out
		}
		prev = cur
	}
}

func (s *Afek) collect(ctx primitive.Context) []int64 {
	idxs := make([]int64, s.n)
	for i, seg := range s.segs {
		idxs[i] = ctx.Read(seg)
	}
	return idxs
}

// cell returns the n+2-word record [value, seq, view...] at offset off.
func (s *Afek) cell(off int64) []int64 {
	return s.cells.view(off, s.n+2)
}
