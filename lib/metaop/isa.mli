(** CMSI, the binary wire format of a {!Flow.program}: the MMIO command
    stream a register-level accelerator driver feeds a memory-mapped queue.
    Each instruction is one command — mode switches and compute issues
    become command words, [Load]/[Store] become DMA descriptors — and a
    [Parallel] block is its [PAR_BEGIN n] command, its [n] body commands
    and a [PAR_END]. There is no second instruction type: {!encode} writes
    a flow and {!decode} reads one back, and the decoder is the one place
    that validates a stream from outside.

    Binary format (everything little-endian):

    {v
    offset  field
    0       magic "CMSI"
    4       u32 version (= 1)
    8       u32 source-name length, then that many bytes
    .       u32 string-table entry count
    .       per entry: u32 length + bytes (labels / tensor names, deduped)
    .       u32 command-word count
    .       command words, each u32
    v}

    Command encodings (word 0 is always the opcode):

    {v
    op  mnemonic   operand words
    1   SWITCH     target (0=TOM 1=TOC); n; n coords
    2   WRITE      label-sidx; node-id; n; n coords; slice.lo; slice.hi;
                   bytes as non-negative i64 (hi word, lo word);
                   in-place (0/1)
    3   DMA_LOAD   tensor-sidx; src location; dst location; bytes as in WRITE
    4   DMA_STORE  tensor-sidx; src location; dst location; bytes as in WRITE
    5   COMPUTE    label-sidx; node-id; n; n coords; m; m mem coords;
                   k; k input sidxs; output sidx; slice.lo; slice.hi;
                   macs as f64 bits (hi, lo); ai as f64 bits (hi, lo)
    6   VEC        label-sidx; node-id; k; k input sidxs; output sidx
    7   PAR_BEGIN  n (commands inside the block)
    8   PAR_END    (no operands)
    v}

    A coord packs as [x lsl 16 lor y]; a location is a tag word
    (0=main-memory, 1=buffer, 2=mem-arrays) where tag 2 is followed by a
    coord-list ([n; n coords]); signed 32-bit fields (node ids) use two's
    complement; 64-bit payloads (byte counts, float bits) split into
    high word then low word. A byte count is never negative. *)

val encode : Flow.program -> string
(** Serialise to the binary format above. Raises [Invalid_argument] on a
    [Parallel] block nested in another (which {!Check} reports) and when a
    field cannot be represented (coord out of 16-bit range, negative byte
    count). *)

val decode : string -> (Flow.program, string) result
(** Total inverse of {!encode}: every malformed input is an [Error], never
    an exception. That includes a byte count that decodes negative (or
    past [max_int]) and the four bracket errors: a [PAR_END] with no open
    block, a [PAR_BEGIN] never closed, a [PAR_BEGIN] count that differs
    from its block's length and a [PAR_BEGIN] inside a block.
    [decode (encode p) = Ok p]. *)

val disassemble : Flow.program -> string
(** Textual listing of the encoded stream, one command per line: word
    offset, mnemonic, operands. Stable format (CI pins resnet18's). *)

val cmd_count : Flow.program -> int
(** Commands in the stream: one per instruction outside and inside
    blocks, plus a [PAR_BEGIN] and a [PAR_END] per [Parallel] block. *)

val word_count : Flow.program -> int
(** Command words only (header and string table excluded). *)

val of_flow : Flow.program -> Flow.program
(** The identity. Kept only because bench/perf calls it; the next change
    to bench/perf deletes it. *)
