package allocator

import (
	"math/rand"
	"testing"
	"time"
)

// TestAutoScalerNoFlapWithinPeriod is the hysteresis property test: over
// seeded oscillating p98 sequences the target tracker must never flap —
// a scale-in is only legal when the entire preceding evaluation period
// was quiet (every observation below the scale-in threshold, so in
// particular no scale-out and no pressure anywhere in the window), and
// two scale-outs never land within one cooldown.
func TestAutoScalerNoFlapWithinPeriod(t *testing.T) {
	const slo = 150 * time.Millisecond
	for seed := int64(0); seed < 50; seed++ {
		a, err := NewAutoScaler(slo)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		gpus := 4
		inThresh := time.Duration(scaleInFraction * float64(a.SLO))

		type obs struct {
			at  time.Duration
			p98 time.Duration
		}
		var history []obs
		var lastOut time.Duration = -1 << 62
		for tick := 0; tick < 300; tick++ {
			now := time.Duration(tick) * time.Second
			// Oscillate across both thresholds: [0.3, 1.1] x SLO.
			p98 := time.Duration((0.3 + 0.8*rng.Float64()) * float64(slo))
			history = append(history, obs{at: now, p98: p98})
			switch a.ObserveLoad(now, p98, 0, gpus) {
			case ScaleOut:
				if lastOut > -1<<62 && now-lastOut < scaleOutCooldown {
					t.Fatalf("seed %d: scale-outs at %v and %v within cooldown %v", seed, lastOut, now, scaleOutCooldown)
				}
				lastOut = now
				gpus++
			case ScaleIn:
				if gpus <= minGPUs {
					t.Fatalf("seed %d: scale-in at %v below minGPUs %d", seed, now, minGPUs)
				}
				for _, o := range history {
					if o.at > now-scaleInPeriod && o.at <= now && o.p98 >= inThresh {
						t.Fatalf("seed %d: scale-in at %v but p98 %v at %v was not quiet (threshold %v)",
							seed, now, o.p98, o.at, inThresh)
					}
				}
				gpus--
			}
			if gpus < minGPUs {
				t.Fatalf("seed %d: pool dropped to %d, below minGPUs %d", seed, gpus, minGPUs)
			}
		}
	}
}

// TestAutoScalerThresholdEdges pins the exact boundary semantics of the
// section 4 policy: the scale-out comparison is inclusive at 95% of the
// SLO, the scale-in band is exclusive at 50%, and a full 60 s period of
// quiet is required before a worker is released.
func TestAutoScalerThresholdEdges(t *testing.T) {
	const slo = 150 * time.Millisecond
	out := time.Duration(0.95 * float64(slo)) // 142.5ms
	in := time.Duration(0.50 * float64(slo))  // 75ms

	cases := []struct {
		name string
		feed func(a *AutoScaler) []ScaleAction
		want []ScaleAction
	}{
		{
			name: "exactly 95% scales out immediately",
			feed: func(a *AutoScaler) []ScaleAction {
				return []ScaleAction{a.ObserveLoad(0, out, 0, 4)}
			},
			want: []ScaleAction{ScaleOut},
		},
		{
			name: "just below 95% holds",
			feed: func(a *AutoScaler) []ScaleAction {
				return []ScaleAction{a.ObserveLoad(0, out-time.Nanosecond, 0, 4)}
			},
			want: []ScaleAction{ScaleNone},
		},
		{
			name: "second burst within cooldown holds, after cooldown scales out",
			feed: func(a *AutoScaler) []ScaleAction {
				return []ScaleAction{
					a.ObserveLoad(0, slo, 0, 4),
					a.ObserveLoad(1*time.Second, slo, 0, 5),
					a.ObserveLoad(5*time.Second, slo, 0, 5),
				}
			},
			want: []ScaleAction{ScaleOut, ScaleNone, ScaleOut},
		},
		{
			name: "exactly 50% is comfortable, never scales in",
			feed: func(a *AutoScaler) []ScaleAction {
				var acts []ScaleAction
				for tick := 0; tick <= 120; tick++ {
					acts = append(acts, a.ObserveLoad(time.Duration(tick)*time.Second, in, 0, 4))
				}
				return acts
			},
			want: nil, // checked below: all ScaleNone
		},
		{
			name: "just under 50% sustained one full period scales in",
			feed: func(a *AutoScaler) []ScaleAction {
				var acts []ScaleAction
				for tick := 0; tick <= 60; tick++ {
					acts = append(acts, a.ObserveLoad(time.Duration(tick)*time.Second, in-time.Nanosecond, 0, 4))
				}
				return acts
			},
			want: nil, // checked below: exactly one ScaleIn, at the final tick
		},
		{
			name: "at MinGPUs quiet never scales in",
			feed: func(a *AutoScaler) []ScaleAction {
				var acts []ScaleAction
				for tick := 0; tick <= 180; tick++ {
					acts = append(acts, a.ObserveLoad(time.Duration(tick)*time.Second, time.Millisecond, 0, minGPUs))
				}
				return acts
			},
			want: nil, // all ScaleNone
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAutoScaler(slo)
			if err != nil {
				t.Fatal(err)
			}
			acts := tc.feed(a)
			if tc.want != nil {
				for i := range tc.want {
					if acts[i] != tc.want[i] {
						t.Fatalf("observation %d = %v, want %v (all: %v)", i, acts[i], tc.want[i], acts)
					}
				}
				return
			}
			switch tc.name {
			case "just under 50% sustained one full period scales in":
				for i, act := range acts {
					if i < len(acts)-1 && act != ScaleNone {
						t.Fatalf("observation %d = %v before the period elapsed", i, act)
					}
				}
				if last := acts[len(acts)-1]; last != ScaleIn {
					t.Fatalf("final observation = %v, want scale-in after a full quiet period", last)
				}
			default:
				for i, act := range acts {
					if act != ScaleNone {
						t.Fatalf("observation %d = %v, want none throughout", i, act)
					}
				}
			}
		})
	}
}
