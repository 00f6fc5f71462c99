(** Dual-mode CIM chip abstraction. Two tiers only — chip and array — as the
    paper's DEHA prescribes (§4.2): the array is the smallest unit that can
    switch modes. All rates are per clock cycle; all sizes in bytes. *)

type coord = { x : int; y : int }

type t = {
  name : string;
  n_arrays : int;        (** number of dual-mode switchable arrays (Table 2: 96) *)
  grid_cols : int;       (** arrays are addressed on a 2-d grid [(x, y)] *)
  rows : int;            (** cells per column of one array (Table 2: 320) *)
  cols : int;            (** cells per row of one array (Table 2: 320) — these
                             are *cell* columns; an 8-bit weight occupies
                             [weight_bits / cell_bits] adjacent cells *)
  cell_bits : int;       (** bits stored per cell (eDRAM/SRAM 1, ReRAM 2+) *)
  weight_bits : int;     (** stored weight precision (8) *)
  buffer_bytes : int;    (** dedicated on-chip buffer (Table 2: 10KB x 8) *)
  internal_bw : float;   (** buffer bandwidth, bytes/cycle (Table 2: 32b/cycle) *)
  extern_bw : float;     (** main-memory bandwidth, bytes/cycle *)
  op_cim : float;        (** MACs/cycle one array provides in compute mode *)
  d_cim : float;         (** bytes/cycle one array provides in memory mode *)
  l_m2c : float;         (** memory->compute switch latency per array, cycles *)
  l_c2m : float;         (** compute->memory switch latency per array, cycles *)
  write_latency : float; (** cycles to (re)program one array's weights *)
  switch_method : string;(** documentation of the physical mechanism *)
  freq_mhz : float;
}

exception Invalid_config of string

val validate : t -> t
(** Checks positivity of every parameter and that the grid covers
    [n_arrays]; returns the record unchanged. Raises [Invalid_config]. *)

val d_main : t -> float
(** Bytes/cycle available from main memory plus the original on-chip buffer
    ([D_main] in Table 1: proportional to extern_bw + internal_bw). *)

val grid_rows : t -> int
(** Rows of the array grid implied by [n_arrays] and [grid_cols]
    ([ceil (n_arrays / grid_cols)]); the last row may be partial. *)

val weight_cols : t -> int
(** Weight columns per array: [cols * cell_bits / weight_bits]. *)

val array_weight_capacity : t -> int
(** Weights one array can hold in compute mode ([rows * weight_cols]). *)

val array_mem_bytes : t -> int
(** Scratchpad bytes one array offers in memory mode. *)

val chip_weight_capacity : t -> int
(** Weights held when every array is in compute mode. *)

val coord_of_index : t -> int -> coord
val index_of_coord : t -> coord -> int
val grid_index : t -> coord -> int
(** {!index_of_coord} without the exception: -1 off the grid. *)

val all_coords : t -> coord list

val cycles_to_us : t -> float -> float
(** Convert a cycle count to microseconds at [freq_mhz]. *)

val pp : Format.formatter -> t -> unit
(** Table-2-style parameter dump. *)
