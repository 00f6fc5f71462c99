(** Content-addressed compilation cache: a directory of self-describing
    JSON entries, addressed by the MD5 of a caller-supplied key string.

    The store is deliberately dumb — it maps [(tier, key)] to an opaque
    payload string and guarantees only {e integrity}: an entry is returned
    iff its recorded key matches the requested key byte-for-byte and the
    payload's MD5 matches the digest recorded at write time. Semantic
    validation of the payload (does this plan still fit this chip? does the
    program pass the flow validator?) is the caller's job; callers report
    such failures back through {!note_invalid} so they land in the same
    [cache.invalid] accounting as integrity failures.

    Tiers partition the key space into subdirectories ([seg/], [prog/]) so
    per-segment allocation entries and whole-program entries can be
    inspected, sized and cleared independently.

    Entries are written atomically (temp file + rename), so a concurrent
    reader never observes a torn entry and a crash mid-write leaves at
    worst an orphan temp file. [find]/[put] may be called from pool worker
    domains; the store's own counters are mutex-guarded.

    Metrics (recorded when {!Cim_obs.Metrics} is enabled): [cache.hits],
    [cache.misses], [cache.invalid], [cache.puts] globally, the same
    rooted at [cache.<tier>.] per tier, and the [cache.bytes] gauge
    tracking the on-disk footprint after each write. The footprint walks
    every entry, so it is taken only while metrics are enabled. *)

type t

val open_dir : string -> t
(** Open (creating directories as needed) a cache rooted at the given
    path. The store has no size budget: entries stay until {!clear} or
    an outside [rm]. Raises [Sys_error] when the directory cannot be
    created. *)

val dir : t -> string

val find : t -> tier:string -> key:string -> string option
(** The payload stored for [(tier, key)], or [None]. A present-but-bad
    entry — unreadable, unparseable, wrong version, recorded key differing
    from [key] (hash collision or relocated file), or payload digest
    mismatch (corruption, truncation) — is a miss that also increments the
    invalid counters; it is left on disk for [verify] to report. *)

val put : t -> tier:string -> key:string -> payload:string -> unit
(** Write (or overwrite) the entry for [(tier, key)]. I/O failures are
    swallowed — a cache that cannot write degrades to a smaller cache, it
    never fails the compile. *)

val note_invalid : t -> tier:string -> unit
(** Record a semantic-validation failure for an entry this store returned:
    the caller parsed the payload and found it stale or meaningless. Counts
    exactly like an integrity failure: the hit {!find} counted for the
    entry is taken back, and the lookup counts as an invalid miss. *)

type counters = {
  hits : int;
  misses : int;
  invalid : int;  (** subset of [misses] caused by bad entries *)
  puts : int;
}

val counters : t -> counters
(** Totals across tiers for this store handle's lifetime (in-process; disk
    state is accounted by {!disk_stats}). *)

val tier_counters : t -> string -> counters

val flush_counters : t -> unit
(** Merge this handle's not-yet-flushed counter deltas into
    [counters.json] at the cache root (read-modify-write, atomic temp +
    rename), so hit/miss accounting survives across processes — one CLI
    invocation's warm hits are visible to the next [cache stats]. I/O
    failures are swallowed and the unflushed delta is retained for the next
    attempt. *)

val lifetime_counters : t -> counters
(** Totals accumulated across every process that has flushed into this
    cache directory, plus this handle's not-yet-flushed delta. Reads
    [counters.json] on each call; a missing or damaged file contributes
    zeros. *)

val lifetime_tier_counters : t -> string -> counters

val fold_keys : t -> tier:string -> init:'a -> f:('a -> string -> 'a) -> 'a
(** Fold [f] over every well-formed entry key stored under [tier], in
    sorted key order (deterministic regardless of directory enumeration).
    Entries that fail parsing or integrity checks are skipped silently and
    the hit/miss counters are not touched — this is an offline scan, not a
    lookup. *)

type tier_stats = { tier : string; entries : int; bytes : int }

type disk_stats = { total_entries : int; total_bytes : int; tiers : tier_stats list }

val disk_stats : t -> disk_stats
(** Walk the directory and size every entry, grouped by tier. *)

val clear : t -> int
(** Remove every entry (and orphan temp file); returns the number of entry
    files removed. *)

val verify : t -> (string * string) list
(** Integrity-check every entry on disk: parse, version, digest, and that
    the entry sits at the path its recorded key hashes to. Returns
    [(path, problem)] for each bad entry; an empty list means the cache is
    sound. Does not touch the hit/miss counters. *)

val entry_path : t -> tier:string -> key:string -> string
(** Where the entry for [(tier, key)] lives (whether or not it exists) —
    exposed for tests that corrupt entries on purpose. *)
