package simfs

// Profile parameterizes the simulated parallel file system. The two stock
// profiles model the paper's test systems; every constant is calibrated so
// the reproduced experiments match the paper's *shapes* (who wins, by what
// factor, where saturation/crossover occurs). Absolute times are model
// outputs, not hardware measurements.
type Profile struct {
	Name string

	// FSBlockSize is the file-system block size (fstat st_blksize), the
	// granularity of SIONlib chunk alignment and of write locks.
	FSBlockSize int64

	// --- Metadata path -------------------------------------------------
	// Directory-entry creation serializes on the directory's metadata
	// server. The per-create cost grows mildly with the number of entries
	// (directory-block splits in extendible hashing, paper §2).
	CreateBase   float64 // seconds per create in an empty directory
	CreateGrowth float64 // extra fraction of CreateBase per log2(entries)
	// Opening an existing file pays OpenBase per open, plus InodeLoad the
	// first time a given file's inode is touched. This single mechanism
	// yields both Fig. 3's expensive "open existing" (N distinct inodes)
	// and the cheap shared open of one SIONlib multifile (one inode).
	OpenBase  float64
	InodeLoad float64
	StatCost  float64
	// RemoveCost is charged per unlink (serialized like create).
	RemoveCost float64
	// CloseUpdate is charged when a handle that wrote data is closed
	// (file-size attribute propagation to the metadata service).
	CloseUpdate float64

	// --- Data path -----------------------------------------------------
	NServers     int     // data servers (GPFS NSDs / Lustre OSTs)
	ServerBW     float64 // per-server write bandwidth, bytes/s
	ReadBWFactor float64 // read bandwidth = ServerBW * ReadBWFactor
	// DefaultStripeCount servers hold each file, chosen pseudo-randomly by
	// file-name hash (GPFS-like). Lustre profiles allow overriding per
	// file via SetStriping before Create.
	DefaultStripeCount int
	DefaultStripeSize  int64
	// ObjInit is paid on a file's first write to each stripe server
	// (object/allocation-map initialization). It is what makes tens of
	// thousands of task-local files marginally slower than one multifile
	// at equal aggregate bandwidth (Fig. 5).
	ObjInit float64

	// --- Client path ---------------------------------------------------
	// Tasks are grouped onto I/O clients (Blue Gene I/O nodes; Cray
	// compute-node NICs): TasksPerClient tasks share one client link of
	// ClientBW bytes/s. Aggregate bandwidth therefore grows with task
	// count until the servers saturate (Fig. 5 shape).
	TasksPerClient int
	ClientBW       float64
	WriteLatency   float64 // per write RPC
	ReadLatency    float64 // per read RPC

	// --- Write locks (GPFS block-granular tokens) ----------------------
	// Writing an FS block whose previous writer is a different task steals
	// the block's write token through the (serialized) token manager.
	// Aligned SIONlib chunks never share blocks, so they never pay this;
	// misaligned chunks pay it on every shared boundary block (Table 1).
	LockRevokeWrite float64
	LockRevokeRead  float64

	// --- Client read cache (Lustre/XT, Fig. 5b) ------------------------
	// A fraction f = min(1, aggregate client cache / bytes written) of
	// read traffic is served without consuming server time, scaling the
	// effective read bandwidth by 1/(1 - CacheBoost*f): with everything
	// cached, reads exceed the file-system maximum as in Fig. 5b.
	ClientCacheBytes float64 // per client
	CacheBoost       float64 // 0 disables; <1

	// ExclusiveReadFactor scales server read time for files read by the
	// single task that owns them (per-file readahead): <1 helps dedicated
	// task-local files at low concurrency; crowding (many files per
	// server) erodes it via ReadCrowdPenalty per log2(files/server).
	ExclusiveReadFactor float64
	ReadCrowdPenalty    float64
}

// Jugene models the paper's IBM Blue Gene/P with GPFS 3.2.1:
// 6 GB/s scratch file system, 2 MB blocks, 152 I/O nodes, distributed
// metadata with block-granular write locks (paper §4, Table 1 caption).
func Jugene() *Profile {
	return &Profile{
		Name:        "jugene",
		FSBlockSize: 2 << 20,

		// Fig. 3a: creating 64K files ≈ 370 s, opening them ≈ 60 s.
		CreateBase:   3.45e-3,
		CreateGrowth: 0.045,
		OpenBase:     3.0e-5,
		InodeLoad:    8.7e-4,
		StatCost:     2.0e-4,
		RemoveCost:   2.0e-3,
		CloseUpdate:  4.5e-4,

		// 32 NSD-like servers × 187.5 MB/s = 6 GB/s aggregate.
		NServers:           32,
		ServerBW:           187.5e6,
		ReadBWFactor:       0.87, // Table 1: read ≈ 0.86 × write when aligned
		DefaultStripeCount: 12,   // → Fig. 4a saturation between 8 and 32 files
		DefaultStripeSize:  2 << 20,
		ObjInit:            1.2e-3,

		// 152 I/O nodes; 64K tasks → 432 tasks/ION; ~620 MB/s effective
		// per 10GigE ION link → saturation at ≈ 8K tasks (Fig. 5a).
		TasksPerClient: 432,
		ClientBW:       620e6,
		WriteLatency:   2.5e-4,
		ReadLatency:    2.0e-4,

		// Table 1: token-manager revocation; calibrated for ≈2.5×/1.8×.
		LockRevokeWrite: 3.7e-3,
		LockRevokeRead:  2.65e-3,

		CacheBoost:          0, // GPFS path shows no cache inflation in the paper
		ExclusiveReadFactor: 1.0,
		ReadCrowdPenalty:    0,
	}
}

// Jaguar models the paper's Cray XT4 with Lustre 1.6.5: 40 GB/s aggregate,
// 72 OSTs, dedicated metadata servers, per-file stripe configuration
// (default 4 OSTs × 1 MB; optimized 64 OSTs × 8 MB), and client-side read
// caching that can push read bandwidth beyond the file-system maximum.
func Jaguar() *Profile {
	return &Profile{
		Name:        "jaguar",
		FSBlockSize: 2 << 20, // paper: SIONlib detected 2 MB on both systems

		// Fig. 3b: creating 12K files ≈ 300 s, opening them ≈ 20 s.
		CreateBase:   1.55e-2,
		CreateGrowth: 0.045,
		OpenBase:     5.5e-4,
		InodeLoad:    1.1e-3,
		StatCost:     4.0e-4,
		RemoveCost:   8.0e-3,
		CloseUpdate:  4.0e-4,

		// 72 OSTs × 556 MB/s = 40 GB/s aggregate.
		NServers:           72,
		ServerBW:           556e6,
		ReadBWFactor:       1.0,
		DefaultStripeCount: 4, // Lustre default in the paper
		DefaultStripeSize:  1 << 20,
		ObjInit:            2.0e-3,

		// Quad-core nodes: 4 tasks share a ~480 MB/s effective NIC.
		TasksPerClient: 4,
		ClientBW:       480e6,
		WriteLatency:   1.5e-4,
		ReadLatency:    1.2e-4,

		// Paper: preliminary tests did NOT confirm the alignment effect on
		// Jaguar → no revocation cost.
		LockRevokeWrite: 0,
		LockRevokeRead:  0,

		// Fig. 5b: reads exceed 40 GB/s once the aggregate client cache
		// covers the data set.
		ClientCacheBytes: 2 << 30,
		CacheBoost:       0.13,

		ExclusiveReadFactor: 0.90,
		ReadCrowdPenalty:    0.05,
	}
}

// clientOf maps a task id to its I/O client id.
func (p *Profile) clientOf(task int) int {
	if p.TasksPerClient <= 1 {
		return task
	}
	return task / p.TasksPerClient
}

// createCost returns the serialized cost of creating the (n+1)-th entry in
// a directory that already holds n entries.
func (p *Profile) createCost(entries int) float64 {
	g := 0.0
	for n := entries; n > 0; n >>= 1 {
		g++
	}
	return p.CreateBase * (1 + p.CreateGrowth*g)
}
