package serve

// For the external tests: writeOneFile, and vecFS, whose Reads and Vecs
// count a backend's reads and their vectors.
var WriteOneFile = writeOneFile

type VecFS = vecFS

// RaceEnabled reports a race build to the external tests.
const RaceEnabled = raceEnabled

// The ablation knobs (ablation), for the external ablation table.
var (
	AblateWholeFills      = func(c *Config) { c.ablate.wholeFills = true }
	AblateSketchHalfSize  = func(c *Config) { c.ablate.sketchPerBlock = 4 }
	AblateSketchNoHalving = func(c *Config) { c.ablate.sketchNeverHalves = true }
)
