(* CLRS-style red-black tree with a per-tree sentinel nil node and parent
   pointers. Deleted nodes have their parent pointer aimed at themselves so
   double-deletes are detected. *)

type node = {
  mutable lo : int;
  mutable hi : int;
  mutable left : node;
  mutable right : node;
  mutable parent : node;
  mutable red : bool;
  mutable cached_free : bool;
  mutable is_nil : bool;
}

type t = { nil : node; mutable root : node; mutable count : int; mutable visits : int }

let make_nil () =
  let rec nil =
    {
      lo = 0;
      hi = -1;
      left = nil;
      right = nil;
      parent = nil;
      red = false;
      cached_free = false;
      is_nil = true;
    }
  in
  nil

let create () =
  let nil = make_nil () in
  { nil; root = nil; count = 0; visits = 0 }

let size t = t.count
let set_cached_free n v = n.cached_free <- v
let visit t = t.visits <- t.visits + 1
let visits t = t.visits

let left_rotate t x =
  let y = x.right in
  visit t;
  x.right <- y.left;
  if not y.left.is_nil then y.left.parent <- x;
  y.parent <- x.parent;
  if x.parent.is_nil then t.root <- y
  else if x == x.parent.left then x.parent.left <- y
  else x.parent.right <- y;
  y.left <- x;
  x.parent <- y

let right_rotate t x =
  let y = x.left in
  visit t;
  x.left <- y.right;
  if not y.right.is_nil then y.right.parent <- x;
  y.parent <- x.parent;
  if x.parent.is_nil then t.root <- y
  else if x == x.parent.right then x.parent.right <- y
  else x.parent.left <- y;
  y.right <- x;
  x.parent <- y

let rec insert_fixup t z =
  if z.parent.red then begin
    if z.parent == z.parent.parent.left then begin
      let y = z.parent.parent.right in
      visit t;
      if y.red then begin
        z.parent.red <- false;
        y.red <- false;
        z.parent.parent.red <- true;
        insert_fixup t z.parent.parent
      end
      else begin
        let z = if z == z.parent.right then (left_rotate t z.parent; z.left) else z in
        (* after a possible rotation z points below its (black-to-be) parent *)
        let z = if z.is_nil then z else z in
        let p = z.parent in
        p.red <- false;
        p.parent.red <- true;
        right_rotate t p.parent;
        insert_fixup t z
      end
    end
    else begin
      let y = z.parent.parent.left in
      visit t;
      if y.red then begin
        z.parent.red <- false;
        y.red <- false;
        z.parent.parent.red <- true;
        insert_fixup t z.parent.parent
      end
      else begin
        let z = if z == z.parent.left then (right_rotate t z.parent; z.right) else z in
        let p = z.parent in
        p.red <- false;
        p.parent.red <- true;
        left_rotate t p.parent;
        insert_fixup t z
      end
    end
  end

let insert t ~lo ~hi =
  if lo > hi then invalid_arg "Rbtree.insert: lo > hi";
  let z =
    {
      lo;
      hi;
      left = t.nil;
      right = t.nil;
      parent = t.nil;
      red = true;
      cached_free = false;
      is_nil = false;
    }
  in
  let y = ref t.nil in
  let x = ref t.root in
  while not !x.is_nil do
    visit t;
    y := !x;
    if hi < !x.lo then x := !x.left
    else if lo > !x.hi then x := !x.right
    else invalid_arg "Rbtree.insert: overlapping interval"
  done;
  z.parent <- !y;
  if !y.is_nil then t.root <- z
  else if hi < !y.lo then !y.left <- z
  else !y.right <- z;
  insert_fixup t z;
  t.root.red <- false;
  t.count <- t.count + 1;
  z

let rec minimum t x =
  if x.left.is_nil then x
  else begin
    visit t;
    minimum t x.left
  end

let rec maximum t x =
  if x.right.is_nil then x
  else begin
    visit t;
    maximum t x.right
  end

(* Neighbour queries answer "none" with the tree's nil sentinel rather
   than an option: the Linux allocator's downward scan steps [prev] once
   per live range, and the sentinel spares it a box per step. *)
let min_node t = if t.root.is_nil then t.nil else minimum t t.root
let max_node t = if t.root.is_nil then t.nil else maximum t t.root

let next t x =
  if not x.right.is_nil then minimum t x.right
  else begin
    let x = ref x and y = ref x.parent in
    while (not !y.is_nil) && !x == !y.right do
      visit t;
      x := !y;
      y := !y.parent
    done;
    !y
  end

let prev t x =
  if not x.left.is_nil then maximum t x.left
  else begin
    let x = ref x and y = ref x.parent in
    while (not !y.is_nil) && !x == !y.left do
      visit t;
      x := !y;
      y := !y.parent
    done;
    !y
  end

let find_containing t pfn =
  let rec go x =
    if x.is_nil then None
    else begin
      visit t;
      if pfn < x.lo then go x.left
      else if pfn > x.hi then go x.right
      else Some x
    end
  in
  go t.root

(* Allocation-free twin of [find_containing] for the zero-alloc unmap
   path: same traversal, same visit counting, no option box. *)
(* Iterative (no inner recursive closure): this sits on the zero-alloc
   unmap path. *)
let find_containing_exn t pfn =
  let x = ref t.root in
  while
    if !x.is_nil then raise Not_found
    else begin
      visit t;
      if pfn < !x.lo then begin
        x := !x.left;
        true
      end
      else if pfn > !x.hi then begin
        x := !x.right;
        true
      end
      else false
    end
  do
    ()
  done;
  !x

let transplant t u v =
  if u.parent.is_nil then t.root <- v
  else if u == u.parent.left then u.parent.left <- v
  else u.parent.right <- v;
  v.parent <- u.parent

let rec delete_fixup t x =
  if (not (x == t.root)) && not x.red then begin
    if x == x.parent.left then begin
      let w = ref x.parent.right in
      visit t;
      if !w.red then begin
        !w.red <- false;
        x.parent.red <- true;
        left_rotate t x.parent;
        w := x.parent.right
      end;
      if (not !w.left.red) && not !w.right.red then begin
        !w.red <- true;
        delete_fixup t x.parent
      end
      else begin
        if not !w.right.red then begin
          !w.left.red <- false;
          !w.red <- true;
          right_rotate t !w;
          w := x.parent.right
        end;
        !w.red <- x.parent.red;
        x.parent.red <- false;
        !w.right.red <- false;
        left_rotate t x.parent;
        delete_fixup t t.root
      end
    end
    else begin
      let w = ref x.parent.left in
      visit t;
      if !w.red then begin
        !w.red <- false;
        x.parent.red <- true;
        right_rotate t x.parent;
        w := x.parent.left
      end;
      if (not !w.right.red) && not !w.left.red then begin
        !w.red <- true;
        delete_fixup t x.parent
      end
      else begin
        if not !w.left.red then begin
          !w.right.red <- false;
          !w.red <- true;
          left_rotate t !w;
          w := x.parent.left
        end;
        !w.red <- x.parent.red;
        x.parent.red <- false;
        !w.left.red <- false;
        right_rotate t x.parent;
        delete_fixup t t.root
      end
    end
  end
  else x.red <- false

let delete t z =
  if z.is_nil then invalid_arg "Rbtree.delete: nil node";
  if z.parent == z then invalid_arg "Rbtree.delete: node already deleted";
  let y = ref z in
  let y_original_red = ref z.red in
  let x = ref t.nil in
  if z.left.is_nil then begin
    x := z.right;
    transplant t z z.right
  end
  else if z.right.is_nil then begin
    x := z.left;
    transplant t z z.left
  end
  else begin
    y := minimum t z.right;
    y_original_red := !y.red;
    x := !y.right;
    if !y.parent == z then !x.parent <- !y
    else begin
      transplant t !y !y.right;
      !y.right <- z.right;
      !y.right.parent <- !y
    end;
    transplant t z !y;
    !y.left <- z.left;
    !y.left.parent <- !y;
    !y.red <- z.red
  end;
  if not !y_original_red then delete_fixup t !x;
  t.nil.parent <- t.nil;
  t.nil.red <- false;
  (* Mark z detached so a second delete is caught. *)
  z.parent <- z;
  z.left <- t.nil;
  z.right <- t.nil;
  t.count <- t.count - 1

let iter t f =
  let rec go x =
    if not x.is_nil then begin
      go x.left;
      f x;
      go x.right
    end
  in
  go t.root

let check_invariants t =
  let exception Bad of string in
  try
    if t.root.red then raise (Bad "root is red");
    if not t.nil.red then () else raise (Bad "nil is red");
    (* red-black height + red-red + ordering + disjointness *)
    let rec black_height x =
      if x.is_nil then 1
      else begin
        if x.red && (x.left.red || x.right.red) then
          raise (Bad "red node with red child");
        if (not x.left.is_nil) && x.left.hi >= x.lo then
          raise (Bad "left subtree overlaps or out of order");
        if (not x.right.is_nil) && x.right.lo <= x.hi then
          raise (Bad "right subtree overlaps or out of order");
        if (not x.left.is_nil) && not (x.left.parent == x) then
          raise (Bad "broken parent pointer (left)");
        if (not x.right.is_nil) && not (x.right.parent == x) then
          raise (Bad "broken parent pointer (right)");
        let bl = black_height x.left in
        let br = black_height x.right in
        if bl <> br then raise (Bad "black heights differ");
        bl + if x.red then 0 else 1
      end
    in
    let _ = black_height t.root in
    (* global ordering and disjointness via in-order sweep *)
    let last_hi = ref min_int in
    iter t (fun n ->
        if n.lo <= !last_hi then raise (Bad "in-order intervals overlap");
        if n.lo > n.hi then raise (Bad "inverted interval");
        last_hi := n.hi);
    let counted = ref 0 in
    iter t (fun _ -> incr counted);
    if !counted <> t.count then raise (Bad "count mismatch");
    Ok ()
  with Bad msg -> Error msg
