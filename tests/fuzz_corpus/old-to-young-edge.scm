; A long-lived pair mutated to point at freshly allocated structure:
; each set-cdr! writes an edge from an old cell to a younger one (a
; forward edge, so the pair becomes a cycle anchor).  Losing track of
; it would let a collection free reachable cells and under-report the
; sup.
(define (f n)
  (let ((anchor (cons 0 '())))
    (define (churn i)
      (if (zero? i)
          (car (cdr anchor))
          (begin
            (set-cdr! anchor (cons i (cons i '())))
            (churn (- i 1)))))
    (churn (+ (* n 8) 5))))
