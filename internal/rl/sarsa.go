package rl

import (
	"errors"
	"fmt"
	"math"
)

// SarsaAgent is an on-policy TD(0) alternative to the Q-learning Agent. The
// paper weighs Q-learning against TD-learning and deep RL (Section IV,
// [14],[70],[79]) and picks Q-learning for its lookup-table latency; SARSA
// shares the table representation (and thus the overhead) but bootstraps
// from the action the policy *actually* takes next instead of the greedy
// maximum:
//
//	Q(S,A) <- Q(S,A) + gamma [ R + mu Q(S',A') - Q(S,A) ]
//
// It exists so the design choice can be evaluated empirically (see the
// ablation benches); it reuses the Agent's table, exploration, persistence
// and transfer machinery via embedding.
type SarsaAgent struct {
	*Agent
}

// NewSarsaAgent creates an on-policy agent over a fixed-size action space.
func NewSarsaAgent(cfg Config, numActions int) (*SarsaAgent, error) {
	ag, err := NewAgent(cfg, numActions)
	if err != nil {
		return nil, err
	}
	return &SarsaAgent{Agent: ag}, nil
}

// NewSarsaAgentInterned creates an on-policy agent whose state indices come
// from a fixed base interner (see NewAgentInterned).
func NewSarsaAgentInterned(cfg Config, numActions int, base Interner) (*SarsaAgent, error) {
	ag, err := NewAgentInterned(cfg, numActions, base)
	if err != nil {
		return nil, err
	}
	return &SarsaAgent{Agent: ag}, nil
}

// UpdateSarsa applies the SARSA rule using nextAction — the action the
// policy selected in the next state. Frozen agents ignore updates.
func (a *SarsaAgent) UpdateSarsa(s State, action int, reward float64, next State, nextAction int) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	return a.updateSarsaLocked(a.internLocked(s), action, reward, a.internLocked(next), nextAction)
}

// UpdateSarsaIdx is UpdateSarsa over dense state indices (the engine's hot
// path).
func (a *SarsaAgent) UpdateSarsaIdx(si int32, action int, reward float64, ni int32, nextAction int) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	if a.frozen.Load() {
		return nil
	}
	if _, err := a.tableForLocked(si); err != nil {
		return err
	}
	if _, err := a.tableForLocked(ni); err != nil {
		return err
	}
	return a.updateSarsaLocked(si, action, reward, ni, nextAction)
}

func (a *SarsaAgent) updateSarsaLocked(si int32, action int, reward float64, ni int32, nextAction int) error {
	if action < 0 || action >= a.actions {
		return fmt.Errorf("rl: action %d out of range", action)
	}
	if nextAction < 0 || nextAction >= a.actions {
		return fmt.Errorf("rl: next action %d out of range", nextAction)
	}
	t := a.tab.Load()
	a.ensureRowLocked(t, ni)
	nextQ := loadQ(t, ni, nextAction)
	a.ensureRowLocked(t, si)
	cell := &t.row(si)[action]
	q := math.Float64frombits(cell.Load())
	delta := reward + a.cfg.Discount*nextQ - q
	a.noteTDLocked(delta)
	cell.Store(math.Float64bits(q + a.cfg.LearningRate*delta))
	return nil
}

// Update implements the off-policy signature by bootstrapping from the
// greedy next action restricted to nextMask — allowing a SarsaAgent to stand
// in anywhere an Agent is used. For the true on-policy rule use UpdateSarsa.
func (a *SarsaAgent) Update(s State, action int, reward float64, next State, nextMask []bool) error {
	return a.Agent.Update(s, action, reward, next, nextMask)
}

// ErrNotSarsa is returned when a SARSA-only operation is invoked on a plain
// Q-learning agent.
var ErrNotSarsa = errors.New("rl: agent is not a SARSA agent")
