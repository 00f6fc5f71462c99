type coord = { x : int; y : int }

type t = {
  name : string;
  n_arrays : int;
  grid_cols : int;
  rows : int;
  cols : int;
  cell_bits : int;
  weight_bits : int;
  buffer_bytes : int;
  internal_bw : float;
  extern_bw : float;
  op_cim : float;
  d_cim : float;
  l_m2c : float;
  l_c2m : float;
  write_latency : float;
  switch_method : string;
  freq_mhz : float;
}

exception Invalid_config of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_config s)) fmt

let validate t =
  let pos name v = if v <= 0 then fail "%s must be positive (got %d)" name v in
  let posf name v = if v <= 0. then fail "%s must be positive (got %g)" name v in
  let nonnegf name v = if v < 0. then fail "%s must be non-negative (got %g)" name v in
  pos "n_arrays" t.n_arrays;
  pos "grid_cols" t.grid_cols;
  pos "rows" t.rows;
  pos "cols" t.cols;
  pos "cell_bits" t.cell_bits;
  pos "weight_bits" t.weight_bits;
  if t.cols * t.cell_bits mod t.weight_bits <> 0 then
    fail "cols*cell_bits must be a multiple of weight_bits";
  pos "buffer_bytes" t.buffer_bytes;
  posf "internal_bw" t.internal_bw;
  posf "extern_bw" t.extern_bw;
  posf "op_cim" t.op_cim;
  posf "d_cim" t.d_cim;
  nonnegf "l_m2c" t.l_m2c;
  nonnegf "l_c2m" t.l_c2m;
  nonnegf "write_latency" t.write_latency;
  posf "freq_mhz" t.freq_mhz;
  if t.grid_cols > t.n_arrays then fail "grid_cols exceeds n_arrays";
  t

let d_main t = t.internal_bw +. t.extern_bw
let grid_rows t = (t.n_arrays + t.grid_cols - 1) / t.grid_cols
let weight_cols t = t.cols * t.cell_bits / t.weight_bits
let array_weight_capacity t = t.rows * weight_cols t
let array_mem_bytes t = t.rows * t.cols * t.cell_bits / 8
let chip_weight_capacity t = t.n_arrays * array_weight_capacity t

let coord_of_index t i =
  if i < 0 || i >= t.n_arrays then fail "array index %d out of range" i;
  { x = i mod t.grid_cols; y = i / t.grid_cols }

let grid_index t { x; y } =
  (* bound y before multiplying: a huge y would wrap the index negative *)
  if x < 0 || x >= t.grid_cols || y < 0 || y >= t.n_arrays
     || (y * t.grid_cols) + x >= t.n_arrays
  then -1
  else (y * t.grid_cols) + x

let index_of_coord t c =
  let i = grid_index t c in
  if i < 0 then fail "coordinate (%d,%d) out of range" c.x c.y;
  i

let all_coords t = List.init t.n_arrays (coord_of_index t)

let cycles_to_us t cycles = cycles /. t.freq_mhz

let pp ppf t =
  Format.fprintf ppf
    "@[<v>CIM chip %s@,\
     #_switch_array      %d@,\
     array_size          %dx%d@,\
     cell_bits           %d@,\
     weight precision    %d-bit@,\
     buffer_size         %s@,\
     internal_bw         %g B/cycle@,\
     extern_bw           %g B/cycle@,\
     OP_cim              %g MAC/cycle/array@,\
     D_cim               %g B/cycle/array@,\
     L_m->c / L_c->m     %g / %g cycles/array@,\
     weight write        %g cycles/array@,\
     switch method       %s@,\
     frequency           %g MHz@]" t.name t.n_arrays t.rows t.cols
    t.cell_bits t.weight_bits
    (Cim_util.Bytesize.to_string t.buffer_bytes)
    t.internal_bw t.extern_bw t.op_cim t.d_cim t.l_m2c t.l_c2m t.write_latency
    t.switch_method t.freq_mhz
