package sgd

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestConfigValidate holds Validate to its rules: one rejected row per rule,
// each one field away from a config it accepts, and the zero values and
// PersistenceInf that mean "default" accepted.
func TestConfigValidate(t *testing.T) {
	valid := func(mut func(*Config)) Config {
		c := Config{Algo: Leashed, Eta: 0.1}
		mut(&c)
		return c
	}
	for _, c := range []Config{
		valid(func(c *Config) {}),
		valid(func(c *Config) { c.Persistence = PersistenceInf }),
		valid(func(c *Config) { c.Algo, c.Shards, c.EpsilonFrac = Hogwild, 4, 0.5 }),
		valid(func(c *Config) { c.Workers, c.BatchSize, c.MaxUpdates, c.MaxTime = 8, 32, 100, time.Second }),
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}

	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // a fragment of the error naming the rule
	}{
		{"unknown algo", func(c *Config) { c.Algo = Leashed + 1 }, "unknown algorithm"},
		{"negative algo", func(c *Config) { c.Algo = Seq - 1 }, "unknown algorithm"},
		{"eta zero", func(c *Config) { c.Eta = 0 }, "step size"},
		{"eta negative", func(c *Config) { c.Eta = -0.1 }, "step size"},
		{"eta NaN", func(c *Config) { c.Eta = math.NaN() }, "step size"},
		{"eta +Inf", func(c *Config) { c.Eta = math.Inf(1) }, "step size"},
		{"persistence below -1", func(c *Config) { c.Persistence = -7 }, "persistence bound"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative batch", func(c *Config) { c.BatchSize = -1 }, "BatchSize"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"negative max updates", func(c *Config) { c.MaxUpdates = -1 }, "MaxUpdates"},
		{"negative max time", func(c *Config) { c.MaxTime = -time.Second }, "MaxTime"},
		{"negative eval cadence", func(c *Config) { c.EvalEvery = -time.Millisecond }, "EvalEvery"},
		{"epsilon negative", func(c *Config) { c.EpsilonFrac = -0.1 }, "EpsilonFrac"},
		{"epsilon one", func(c *Config) { c.EpsilonFrac = 1 }, "EpsilonFrac"},
		{"epsilon NaN", func(c *Config) { c.EpsilonFrac = math.NaN() }, "EpsilonFrac"},
	} {
		err := valid(tc.mut).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzConfigValidate: Validate never panics, and every Config it accepts
// comes out of withDefaults runnable — at least one worker and one example
// per batch, a positive monitor cadence, and a stop condition.
func FuzzConfigValidate(f *testing.F) {
	f.Add(int(Leashed), 4, 0.05, 16, -1, 1, int64(0), int64(0), int64(0), 0.5)
	f.Add(int(Async), 0, 1e-3, 0, 0, 0, int64(100), int64(time.Second), int64(time.Millisecond), 0.0)
	f.Add(int(Hogwild), -1, math.NaN(), -1, -7, -1, int64(-1), int64(-1), int64(-1), 1.0)
	f.Fuzz(func(t *testing.T, algo, workers int, eta float64, batch, persistence, shards int,
		maxUpdates, maxTime, evalEvery int64, eps float64) {
		cfg := Config{
			Algo: Algorithm(algo), Workers: workers, Eta: eta,
			BatchSize: batch, Persistence: persistence, Shards: shards,
			MaxUpdates: maxUpdates, MaxTime: time.Duration(maxTime),
			EvalEvery: time.Duration(evalEvery), EpsilonFrac: eps,
		}
		if cfg.Validate() != nil {
			return
		}
		c := cfg.withDefaults()
		if c.Workers < 1 || c.BatchSize < 1 || c.EvalEvery <= 0 || (c.MaxTime <= 0 && c.MaxUpdates <= 0) {
			t.Fatalf("accepted %+v defaults to an unrunnable %+v", cfg, c)
		}
	})
}
