(* Explicit-inverse basis factorization for the revised simplex. Problems
   here are a few dozen rows, so a dense m x m inverse with product-form
   updates is both the simplest and the fastest representation: every
   ftran/btran is one O(m^2) matrix-vector product, every pivot one O(m^2)
   rank-1 update, and a periodic O(m^3) rebuild from the true basic columns
   keeps the numerics honest. *)

let m_refactor = Cim_obs.Metrics.counter "solver.simplex.refactorizations"

type t = {
  m : int;
  binv : float array array; (* row-major m x m, current B^-1 *)
  mutable updates : int;
}

let identity_into binv m =
  for i = 0 to m - 1 do
    let r = binv.(i) in
    Array.fill r 0 m 0.;
    r.(i) <- 1.
  done

let refactor_every = 64

let create m =
  if m < 0 then invalid_arg "Basis.create: negative dimension";
  let binv = Array.make_matrix m m 0. in
  (* make_matrix already zeroed the rows; only the diagonal needs writing *)
  for i = 0 to m - 1 do
    binv.(i).(i) <- 1.
  done;
  { m; binv; updates = 0 }

let reset t =
  identity_into t.binv t.m;
  t.updates <- 0

let dim t = t.m

let ftran_into t a dst =
  for i = 0 to t.m - 1 do
    let r = t.binv.(i) in
    let acc = ref 0. in
    for k = 0 to t.m - 1 do
      acc := !acc +. (r.(k) *. a.(k))
    done;
    dst.(i) <- !acc
  done

let ftran t a =
  let y = Array.make t.m 0. in
  ftran_into t a y;
  y

let btran_into t c dst =
  Array.fill dst 0 t.m 0.;
  for i = 0 to t.m - 1 do
    let ci = c.(i) in
    if ci <> 0. then begin
      let r = t.binv.(i) in
      for j = 0 to t.m - 1 do
        dst.(j) <- dst.(j) +. (ci *. r.(j))
      done
    end
  done

let btran t c =
  let y = Array.make t.m 0. in
  btran_into t c y;
  y

let row t r = t.binv.(r)

let pivot t ~row:r ~w =
  let p = w.(r) in
  let br = t.binv.(r) in
  for j = 0 to t.m - 1 do
    br.(j) <- br.(j) /. p
  done;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let f = w.(i) in
      if f <> 0. then begin
        let bi = t.binv.(i) in
        for j = 0 to t.m - 1 do
          bi.(j) <- bi.(j) -. (f *. br.(j))
        done
      end
    end
  done;
  t.updates <- t.updates + 1

let updates_since_refactor t = t.updates
let needs_refactor t = t.updates >= refactor_every

let export t = Array.map Array.copy t.binv

let restore t binv ~updates =
  if Array.length binv <> t.m then invalid_arg "Basis.restore: dimension";
  for i = 0 to t.m - 1 do
    Array.blit binv.(i) 0 t.binv.(i) 0 t.m
  done;
  t.updates <- updates

(* Gauss-Jordan with partial pivoting on [B | I], in place. *)
let refactor t ~col ~order =
  Cim_obs.Metrics.incr m_refactor;
  let m = t.m in
  let a = Array.make_matrix m m 0. in
  for j = 0 to m - 1 do
    let cj = col order.(j) in
    for i = 0 to m - 1 do
      a.(i).(j) <- cj.(i)
    done
  done;
  identity_into t.binv m;
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let best = ref k and mag = ref (Float.abs a.(k).(k)) in
       for i = k + 1 to m - 1 do
         let v = Float.abs a.(i).(k) in
         if v > !mag then begin
           best := i;
           mag := v
         end
       done;
       if !mag < 1e-12 then begin
         ok := false;
         raise Exit
       end;
       if !best <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(!best);
         a.(!best) <- tmp;
         let tmp = t.binv.(k) in
         t.binv.(k) <- t.binv.(!best);
         t.binv.(!best) <- tmp
       end;
       let p = a.(k).(k) in
       let ak = a.(k) and bk = t.binv.(k) in
       for j = 0 to m - 1 do
         ak.(j) <- ak.(j) /. p;
         bk.(j) <- bk.(j) /. p
       done;
       for i = 0 to m - 1 do
         if i <> k then begin
           let f = a.(i).(k) in
           if f <> 0. then begin
             let ai = a.(i) and bi = t.binv.(i) in
             for j = 0 to m - 1 do
               ai.(j) <- ai.(j) -. (f *. ak.(j));
               bi.(j) <- bi.(j) -. (f *. bk.(j))
             done
           end
         end
       done
     done
   with Exit -> ());
  if !ok then t.updates <- 0;
  !ok
