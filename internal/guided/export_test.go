package guided

// CorpusEnergy returns the corpus's total energy, the mass the
// introspection snapshot's Energy.Sum must equal once the engine stops.
func (e *Engine) CorpusEnergy() uint64 { return e.corp.total }

// MaxExecutions is the minimizer's replay budget per Minimize call.
const MaxExecutions = maxExecutions
