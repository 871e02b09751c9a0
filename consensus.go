package tradeoffs

import (
	"fmt"

	"github.com/restricteduse/tradeoffs/internal/consensus"
	"github.com/restricteduse/tradeoffs/internal/history"
	"github.com/restricteduse/tradeoffs/internal/obs"
	"github.com/restricteduse/tradeoffs/internal/primitive"
)

// Consensus is an N-process, obstruction-free, restricted-use consensus
// object built from read/write registers (rounds of commit-adopt), with an
// Algorithm A max register publishing the contention level. Construct with
// NewConsensus; access through per-process Handles.
//
// Proposals are positive int64s below 2^61. Every successful Propose
// returns the same value (agreement), which is some caller's proposal
// (validity). Under extreme contention a Propose can exhaust the
// construction-time round budget (WithLimit) and return
// ErrRoundsExhausted; retry with backoff.
type Consensus struct {
	wiring
	impl *consensus.Consensus
}

// ErrRoundsExhausted is returned by Propose when contention outlasts the
// round budget.
var ErrRoundsExhausted = consensus.ErrRoundsExhausted

// NewConsensus builds a consensus object. WithLimit sets the round budget
// (default 1024).
func NewConsensus(opts ...Option) (*Consensus, error) {
	c := buildConfig(opts)
	if err := c.validate(); err != nil {
		return nil, err
	}
	rounds := c.limit
	if rounds == 0 {
		rounds = 1024
	}
	pool := primitive.NewPadded()
	impl, err := consensus.NewConsensus(pool, c.processes, int(rounds))
	if err != nil {
		return nil, fmt.Errorf("tradeoffs: %w", err)
	}
	w, err := wire(c, "consensus", pool, consensusBounds(impl, c.processes))
	if err != nil {
		return nil, err
	}
	return &Consensus{wiring: w, impl: impl}, nil
}

// Processes returns the number of process slots.
func (c *Consensus) Processes() int { return c.processes }

// Handle returns process id's access handle. Handle panics if id is outside
// [0, Processes()) — see checkHandleID.
func (c *Consensus) Handle(id int) *ConsensusHandle {
	checkHandleID("Consensus", id, c.processes)
	return &ConsensusHandle{handle: c.newHandle(id), cons: c.impl, opPropose: c.op("propose")}
}

// ConsensusHandle is a per-process capability to a Consensus.
type ConsensusHandle struct {
	handle

	cons      *consensus.Consensus
	opPropose *obs.Op
}

// Propose submits v and returns the agreed value.
func (h *ConsensusHandle) Propose(v int64) (int64, error) {
	s := h.begin(h.opPropose)
	agreed, err := h.cons.Propose(h.ctx, v)
	if err != nil {
		// An exhausted round budget decides nothing: drop the record.
		h.abort(s)
		return agreed, err
	}
	h.end(s, history.KindPropose, v, agreed)
	return agreed, nil
}

// Decided returns the agreed value, or 0 if none yet (one step).
func (h *ConsensusHandle) Decided() int64 {
	return h.cons.Decided(h.ctx)
}

// ContentionRounds reports the highest consensus round any process reached
// without committing (one step, via the Algorithm A round tracker).
func (h *ConsensusHandle) ContentionRounds() int64 {
	return h.cons.HighRound(h.ctx)
}
