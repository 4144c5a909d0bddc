package petri

import (
	"encoding/json"
	"fmt"

	"repro/internal/dist"
)

// netJSON is the on-disk representation `wsnenergy petri` reads. Guards
// are not serializable; nets loaded from JSON have none.
type netJSON struct {
	Name        string           `json:"name"`
	Places      []placeJSON      `json:"places"`
	Transitions []transitionJSON `json:"transitions"`
	Arcs        []arcJSON        `json:"arcs"`
}

type placeJSON struct {
	Name     string `json:"name"`
	Initial  int    `json:"initial,omitempty"`
	Capacity int    `json:"capacity,omitempty"`
}

type transitionJSON struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // immediate|exponential|deterministic|uniform|erlang
	Priority int     `json:"priority,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Mean     float64 `json:"mean,omitempty"`
	Delay    float64 `json:"delay,omitempty"`
	Low      float64 `json:"low,omitempty"`
	High     float64 `json:"high,omitempty"`
	K        int     `json:"k,omitempty"`
	// Servers: 0/1 single-server, k > 1 k-server, -1 infinite-server.
	Servers int `json:"servers,omitempty"`
}

type arcJSON struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Weight int    `json:"weight,omitempty"`
	Kind   string `json:"kind,omitempty"` // "" (normal) | "inhibitor"
}

// MarshalJSON serializes the net. Only the built-in distribution kinds
// (exponential, deterministic, uniform, Erlang) round-trip; other
// distributions cause an error.
func MarshalJSON(n *Net) ([]byte, error) {
	out := netJSON{Name: n.Name}
	for _, p := range n.Places {
		out.Places = append(out.Places, placeJSON{Name: p.Name, Initial: p.Initial, Capacity: p.Capacity})
	}
	for ti := range n.Transitions {
		t := &n.Transitions[ti]
		tj := transitionJSON{Name: t.Name, Servers: t.Servers}
		switch t.Kind {
		case Immediate:
			tj.Kind = "immediate"
			tj.Priority = t.Priority
			tj.Weight = t.Weight
		case Timed:
			switch d := t.Delay.(type) {
			case dist.Exponential:
				tj.Kind = "exponential"
				tj.Rate = d.Rate
			case dist.Deterministic:
				tj.Kind = "deterministic"
				tj.Delay = d.Value
			case dist.Uniform:
				tj.Kind = "uniform"
				tj.Low, tj.High = d.Low, d.High
			case dist.Erlang:
				tj.Kind = "erlang"
				tj.K, tj.Rate = d.K, d.Rate
			default:
				return nil, fmt.Errorf("petri: cannot serialize delay distribution %s of transition %q", t.Delay, t.Name)
			}
		}
		out.Transitions = append(out.Transitions, tj)
		for _, a := range t.Inputs {
			out.Arcs = append(out.Arcs, arcJSON{From: n.Places[a.Place].Name, To: t.Name, Weight: a.Weight})
		}
		for _, a := range t.Outputs {
			out.Arcs = append(out.Arcs, arcJSON{From: t.Name, To: n.Places[a.Place].Name, Weight: a.Weight})
		}
		for _, a := range t.Inhibitors {
			out.Arcs = append(out.Arcs, arcJSON{From: n.Places[a.Place].Name, To: t.Name, Weight: a.Weight, Kind: "inhibitor"})
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON parses a net from its JSON representation and validates it.
func UnmarshalJSON(data []byte) (*Net, error) {
	var in netJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("petri: parsing net JSON: %w", err)
	}
	n := NewNet(in.Name)
	for _, p := range in.Places {
		if p.Initial < 0 {
			return nil, fmt.Errorf("petri: place %q has negative initial marking", p.Name)
		}
		id := n.AddPlaceInit(p.Name, p.Initial)
		if p.Capacity > 0 {
			n.SetCapacity(id, p.Capacity)
		}
	}
	for _, t := range in.Transitions {
		switch t.Kind {
		case "immediate":
			id := n.AddImmediate(t.Name, t.Priority)
			if t.Weight > 0 {
				n.SetWeight(id, t.Weight)
			}
		case "exponential":
			rate := t.Rate
			if rate == 0 && t.Mean > 0 {
				rate = 1 / t.Mean
			}
			if rate <= 0 {
				return nil, fmt.Errorf("petri: exponential transition %q needs rate or mean", t.Name)
			}
			id := n.AddExponential(t.Name, rate)
			switch {
			case t.Servers == InfiniteServers:
				n.SetInfiniteServer(id)
			case t.Servers > 1:
				n.SetServers(id, t.Servers)
			case t.Servers < InfiniteServers:
				return nil, fmt.Errorf("petri: transition %q has invalid servers %d", t.Name, t.Servers)
			}
		case "deterministic":
			if t.Delay < 0 {
				return nil, fmt.Errorf("petri: deterministic transition %q has negative delay", t.Name)
			}
			n.AddDeterministic(t.Name, t.Delay)
		case "uniform":
			if t.High <= t.Low {
				return nil, fmt.Errorf("petri: uniform transition %q needs low < high", t.Name)
			}
			n.AddTimed(t.Name, dist.NewUniform(t.Low, t.High))
		case "erlang":
			if t.K < 1 {
				return nil, fmt.Errorf("petri: erlang transition %q needs k >= 1", t.Name)
			}
			switch {
			case t.Rate > 0:
				n.AddTimed(t.Name, dist.NewErlang(t.K, t.Rate))
			case t.Mean > 0:
				n.AddTimed(t.Name, dist.ErlangMean(t.K, t.Mean))
			default:
				return nil, fmt.Errorf("petri: erlang transition %q needs rate or mean", t.Name)
			}
		default:
			return nil, fmt.Errorf("petri: unknown transition kind %q for %q", t.Kind, t.Name)
		}
	}
	for _, a := range in.Arcs {
		w := a.Weight
		if w == 0 {
			w = 1
		}
		fromP, fromIsPlace := n.PlaceByName(a.From)
		toT, toIsTrans := n.TransitionByName(a.To)
		fromT, fromIsTrans := n.TransitionByName(a.From)
		toP, toIsPlace := n.PlaceByName(a.To)
		switch {
		case a.Kind == "inhibitor":
			if !fromIsPlace || !toIsTrans {
				return nil, fmt.Errorf("petri: inhibitor arc %q -> %q must go from place to transition", a.From, a.To)
			}
			n.Inhibitor(toT, fromP, w)
		case fromIsPlace && toIsTrans:
			n.Input(toT, fromP, w)
		case fromIsTrans && toIsPlace:
			n.Output(fromT, toP, w)
		default:
			return nil, fmt.Errorf("petri: arc %q -> %q does not connect a place and a transition", a.From, a.To)
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
