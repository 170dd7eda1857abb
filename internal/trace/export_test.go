package trace

// CompileSegmented is compile for the external tests, which cut catalog
// workloads into small segments.
var CompileSegmented = compile

// Segments returns how many segments k holds.
func (k *CompiledKernel) Segments() int { return len(k.segs) }
