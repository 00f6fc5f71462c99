(** The lowered MMIO command-stream ISA: the second backend behind the
    nanopass seams. A {!Flow.program} flattens onto a linear command FIFO —
    mode switches and compute issues become command words, [Load]/[Store]
    become DMA descriptors, and [Parallel] blocks become
    [PAR_BEGIN]/[PAR_END] bracket markers — the shape of a register-level
    accelerator driver feeding a memory-mapped queue.

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

type coord = Cim_arch.Chip.coord

type cmd =
  | Switch of { target : Cim_arch.Mode.transition; arrays : coord list }
  | Write_weights of {
      label : string;
      node_id : int;
      arrays : coord list;
      slice : Flow.slice;
      bytes : int;
      in_place : bool;
    }
  | Dma_load of { tensor : string; src : Flow.location; dst : Flow.location; bytes : int }
  | Dma_store of { tensor : string; src : Flow.location; dst : Flow.location; bytes : int }
  | Compute of {
      label : string;
      node_id : int;
      arrays : coord list;
      mem_arrays : coord list;
      inputs : string list;
      output : string;
      slice : Flow.slice;
      macs : float;
      ai : float;
    }
  | Vec of { label : string; node_id : int; inputs : string list; output : string }
  | Par_begin of int  (** number of commands inside the bracketed block *)
  | Par_end

type image = { source : string; cmds : cmd array }

val of_flow : Flow.program -> image
(** Flatten: each [Parallel] block becomes [Par_begin n; ...; Par_end].
    Raises [Invalid_argument] on nested [Parallel], which {!Check}
    reports. *)

val to_flow : image -> Flow.program
(** Raise back to the meta-op level. [to_flow (of_flow p)] reproduces [p]
    exactly, so {!Flow.to_string} of both is byte-identical. Raises
    [Invalid_argument] on unbalanced bracket markers. *)

val encode : image -> string
(** Serialise to the binary format above. Raises [Invalid_argument] when a
    field cannot be represented (coord out of 16-bit range, negative byte
    count). *)

val decode : string -> (image, string) result
(** Total inverse of {!encode}: every malformed input is an [Error], never
    an exception — a byte count that decodes negative (or past [max_int])
    among them. [decode (encode img) = Ok img]. *)

val disassemble : image -> string
(** Textual listing, one command per line: word offset, mnemonic,
    operands. Stable format (CI diffs round trips through it). *)

val cmd_count : image -> int
val word_count : image -> int
(** Command words only (header and string table excluded). *)
