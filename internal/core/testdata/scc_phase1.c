// Classification phase 1 over a two-function SCC: zeta changes a refcount,
// so alpha, which calls zeta, does too, and so does alpha's caller. The
// outcome must not depend on which member sorts first.
//
// want alpha refcount-changing
// want zeta refcount-changing
// want caller refcount-changing

extern int pm_runtime_get_sync(struct device *dev);

int alpha(struct device *dev) {
    return zeta(dev);
}

int zeta(struct device *dev) {
    pm_runtime_get_sync(dev);
    return alpha(dev);
}

int caller(struct device *dev) {
    return alpha(dev);
}
