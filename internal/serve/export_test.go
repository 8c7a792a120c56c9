package serve

// For the external tests: writeOneFile, and vecFS, whose Reads and Vecs
// count a backend's reads and their vectors.
var WriteOneFile = writeOneFile

type VecFS = vecFS
